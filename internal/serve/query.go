// The /query endpoint: compressed-domain predicate push-down over the
// container's zone maps (format v4). The predicate arrives in the query
// string, QueryPlan prunes shards that provably cannot match — zero
// container I/O for those — and only the survivors are decoded, through
// the same shared cache, singleflight group, and bounded decode pool as
// /shard/{i}/reads. Matching records stream back as FASTQ; count=1
// returns a JSON summary instead of bodies.
package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"sage/internal/genome"
	"sage/internal/shard"
)

// parsePredicate builds a shard.Predicate from a /query URL query
// string. Unknown parameters are a 400, not silently ignored: a typo
// like "min-avgphre" would otherwise stream the whole container as if
// it matched the intended filter. The count key selects the JSON
// summary response.
func parsePredicate(q url.Values) (p *shard.Predicate, countOnly bool, err error) {
	p = &shard.Predicate{}
	for key, vals := range q {
		if len(vals) != 1 {
			return nil, false, fmt.Errorf("serve: query parameter %q given %d times, want once", key, len(vals))
		}
		v := vals[0]
		switch key {
		case "min-avgphred":
			p.MinAvgPhred, err = parseQueryFloat(key, v)
		case "max-ee":
			p.MaxEE, err = parseQueryFloat(key, v)
		case "min-len":
			p.MinLen, err = parseQueryInt(key, v)
		case "max-len":
			p.MaxLen, err = parseQueryInt(key, v)
		case "min-gc":
			p.MinGC, err = parseQueryFloat(key, v)
		case "max-gc":
			p.MaxGC, err = parseQueryFloat(key, v)
		case "kmer":
			p.Subseq, err = genome.FromString(v)
			if err == nil && len(p.Subseq) == 0 {
				err = fmt.Errorf("serve: kmer must not be empty")
			}
		case "count":
			switch v {
			case "1", "true":
				countOnly = true
			case "0", "false":
			default:
				err = fmt.Errorf("serve: count=%q, want 0/1/true/false", v)
			}
		default:
			return nil, false, fmt.Errorf("serve: unknown query parameter %q (predicate keys: min-avgphred, max-ee, min-len, max-len, min-gc, max-gc, kmer; plus count)", key)
		}
		if err != nil {
			return nil, false, err
		}
	}
	if p.MinLen > 0 && p.MaxLen > 0 && p.MinLen > p.MaxLen {
		return nil, false, fmt.Errorf("serve: min-len=%d exceeds max-len=%d", p.MinLen, p.MaxLen)
	}
	if p.MinGC > 0 && p.MaxGC > 0 && p.MinGC > p.MaxGC {
		return nil, false, fmt.Errorf("serve: min-gc=%g exceeds max-gc=%g", p.MinGC, p.MaxGC)
	}
	return p, countOnly, nil
}

func parseQueryFloat(key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("serve: %s=%q is not a non-negative number", key, v)
	}
	return f, nil
}

func parseQueryInt(key, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || strconv.Itoa(n) != v {
		return 0, fmt.Errorf("serve: %s=%q is not a canonical non-negative integer", key, v)
	}
	return n, nil
}

// querySummary is the count=1 response.
type querySummary struct {
	Container     string `json:"container"`
	Predicate     string `json:"predicate"`
	ZoneMaps      bool   `json:"zone_maps"`
	ShardsTotal   int    `json:"shards_total"`
	ShardsPruned  int    `json:"shards_pruned"`
	ShardsScanned int    `json:"shards_scanned"`
	ReadsScanned  int    `json:"reads_scanned"`
	ReadsMatched  int    `json:"reads_matched"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, e *Named) {
	pred, countOnly, err := parsePredicate(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.met.queryReqs.Inc()
	scan, pruned := e.C.QueryPlan(pred)
	s.met.shardsPruned.Add(int64(pruned))
	s.met.shardsScanned.Add(int64(len(scan)))
	h := w.Header()
	h.Set("X-Sage-Query", pred.String())
	h.Set("X-Sage-Shards-Total", strconv.Itoa(e.C.NumShards()))
	h.Set("X-Sage-Shards-Pruned", strconv.Itoa(pruned))
	h.Set("X-Sage-Shards-Scanned", strconv.Itoa(len(scan)))

	if countOnly {
		sum := querySummary{
			Container:     e.Name,
			Predicate:     pred.String(),
			ZoneMaps:      e.C.HasZoneMaps(),
			ShardsTotal:   e.C.NumShards(),
			ShardsPruned:  pruned,
			ShardsScanned: len(scan),
		}
		for _, i := range scan {
			sum.ReadsScanned += e.C.Index.Entries[i].ReadCount
			matched, err := s.shardMatches(r.Context(), e, i, pred, nil)
			if err != nil {
				s.fail(w, http.StatusInternalServerError, err)
				return
			}
			sum.ReadsMatched += matched
		}
		s.met.queryMatched.Add(int64(sum.ReadsMatched))
		s.writeJSON(w, sum)
		return
	}

	h.Set("Content-Type", "text/plain; charset=utf-8")
	// The body length depends on what matches, so the response streams
	// (no Content-Length). A decode failure after the first matching
	// record has been written can no longer change the status; it is
	// counted as a server error (a cancelled request is not one) and the
	// stream truncated.
	bw := bufio.NewWriter(w)
	started := false
	for _, i := range scan {
		matched, err := s.shardMatches(r.Context(), e, i, pred, bw)
		if matched > 0 {
			started = true
		}
		s.met.queryMatched.Add(int64(matched))
		if err != nil {
			switch _, isWrite := err.(writeError); {
			case isWrite:
				s.met.writeFails.Inc()
			case !started:
				s.fail(w, http.StatusInternalServerError, err)
			case !cancelled(err):
				s.met.serverErrs.Inc()
			}
			return
		}
	}
	if err := bw.Flush(); err != nil {
		s.met.writeFails.Inc()
	}
}

// writeError marks stream-write failures apart from decode failures, so
// handleQuery counts a hung-up client as a write failure rather than a
// server error.
type writeError struct{ error }

// shardMatches counts the records of shard i matching pred in its
// decoded text (cached: a warm query decodes nothing), streaming them
// to w when non-nil. An oversized shard keeps its slot until then.
func (s *Server) shardMatches(ctx context.Context, e *Named, i int, pred *shard.Predicate, w io.Writer) (int, error) {
	d, err := s.decodedShard(ctx, e, i)
	if err != nil {
		return 0, err
	}
	defer d.done()
	matched := 0
	_, err = pred.MatchText(d.data, func(rec []byte) error {
		matched++
		if w == nil {
			return nil
		}
		if _, err := w.Write(rec); err != nil {
			return writeError{err}
		}
		return nil
	})
	return matched, err
}
