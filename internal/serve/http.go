// HTTP conditional-request and range-request plumbing: ETags derived
// from the shard index's crc32, If-None-Match evaluation, and
// single-range Range parsing for resumable raw-block fetches.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"sage/internal/shard"
)

// blockETag is the raw-block entity tag: the shard's index crc32. The
// index is immutable for a given container, so the tag is stable across
// server restarts — a client can re-validate a block it fetched from a
// previous process for the cost of a 304.
func blockETag(e shard.Entry) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%08x", e.Checksum))
}

// readsETag tags the decoded-FASTQ representation of the same shard.
// RFC 9110 requires different representations of a resource to carry
// different tags, so the decoded form gets a distinct suffix. Its bytes
// follow from the block and the embedded consensus alone, so the tag is
// as restart-stable as the block's.
func readsETag(e shard.Entry) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%08x-fq", e.Checksum))
}

// readsOriginalETag tags the original-order representation of a
// reordered shard's decoded FASTQ (?order=original): a third
// representation of the resource, so a third distinct suffix.
func readsOriginalETag(e shard.Entry) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%08x-fqoo", e.Checksum))
}

// etagMatch evaluates an If-None-Match header value against the current
// entity tag: a "*" or any listed tag matching (weak-compare — a W/
// prefix is ignored) means the client's copy is current. Entity-tags
// are quoted strings (RFC 9110 §8.8.3), so the list is split on the
// commas BETWEEN tags — a comma inside a quoted tag is part of that
// tag, and a naive strings.Split would shred it into fragments that
// never match. "*" only counts as the whole-header wildcard, not as a
// list member.
func etagMatch(header, tag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range splitETags(header) {
		if strings.TrimPrefix(cand, "W/") == tag {
			return true
		}
	}
	return false
}

// splitETags splits an If-None-Match list into entity-tags, honoring
// quoting: commas inside a quoted tag do not separate. Empty list
// members (stray commas) are dropped.
func splitETags(header string) []string {
	var out []string
	start, inQuote := 0, false
	flush := func(end int) {
		if s := strings.TrimSpace(header[start:end]); s != "" {
			out = append(out, s)
		}
		start = end + 1
	}
	for i := 0; i < len(header); i++ {
		switch header[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				flush(i)
			}
		}
	}
	flush(len(header))
	return out
}

// parseRange interprets a Range header against a size-byte entity. It
// returns the window to serve and whether it is partial (206). The
// grammar accepted is the single-range form of RFC 9110 §14.1.2:
// "bytes=a-b", "bytes=a-", and the suffix form "bytes=-n".
//
//   - An absent header, or one in units other than bytes, selects the
//     whole entity (a server may ignore ranges it does not understand).
//   - Multiple ranges select the whole entity too: shard blocks are
//     single opaque units and a multipart reply would only complicate
//     resumption, the one use case ranges exist for here.
//   - A malformed or unsatisfiable bytes range is an error; the caller
//     answers 416 with the entity size in Content-Range.
func parseRange(header string, size int64) (start, length int64, partial bool, err error) {
	if header == "" {
		return 0, size, false, nil
	}
	spec, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return 0, size, false, nil
	}
	if strings.Contains(spec, ",") {
		return 0, size, false, nil
	}
	lo, hi, ok := strings.Cut(strings.TrimSpace(spec), "-")
	if !ok {
		return 0, 0, false, fmt.Errorf("serve: malformed range %q", header)
	}
	if lo == "" {
		// Suffix form: the final n bytes.
		n, perr := strconv.ParseInt(hi, 10, 64)
		if perr != nil || n <= 0 {
			return 0, 0, false, fmt.Errorf("serve: unsatisfiable suffix range %q", header)
		}
		if n > size {
			n = size
		}
		return size - n, n, true, nil
	}
	start, perr := strconv.ParseInt(lo, 10, 64)
	if perr != nil || start < 0 {
		return 0, 0, false, fmt.Errorf("serve: malformed range %q", header)
	}
	if start >= size {
		return 0, 0, false, fmt.Errorf("serve: range %q starts past the %d-byte block", header, size)
	}
	end := size - 1
	if hi != "" {
		end, perr = strconv.ParseInt(hi, 10, 64)
		if perr != nil || end < start {
			return 0, 0, false, fmt.Errorf("serve: malformed range %q", header)
		}
		if end > size-1 {
			end = size - 1
		}
	}
	return start, end - start + 1, true, nil
}
