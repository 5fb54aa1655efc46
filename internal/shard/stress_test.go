package shard

import (
	"bytes"
	"sync"
	"testing"

	"sage/internal/fastq"
)

// TestConcurrentCompressDecompressSharedOptions runs several
// CompressPipeline and DecompressTo pipelines at once, all reading ONE
// shared Options value. Options (and the SharedMapper the block
// options may carry) must be safe to share by value across concurrent
// compressions; under `go test -race` this pins the pooled scratch
// introduced by the allocation pass — mapper scratch, range-coder
// state, decode arenas — as goroutine-safe.
func TestConcurrentCompressDecompressSharedOptions(t *testing.T) {
	rs, ref := testSet(t, 400)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64
	opt.Workers = 2

	// A reference container for the decode side, plus reference bytes
	// for determinism checks.
	refData, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	refContainer, err := Parse(refData)
	if err != nil {
		t.Fatal(err)
	}
	var refPlain bytes.Buffer
	if err := refContainer.DecompressTo(&refPlain, nil, 1); err != nil {
		t.Fatal(err)
	}
	text := rs.Bytes()

	const goroutines = 4
	var wg sync.WaitGroup
	errc := make(chan error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Compress from a private reader through the SHARED opt.
			br := fastq.NewBatchReader(bytes.NewReader(text), opt.ShardReads)
			var out bytes.Buffer
			if _, err := CompressPipeline(br, &out, opt); err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(out.Bytes(), refData) {
				t.Error("concurrent CompressPipeline produced different container bytes")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			if err := refContainer.DecompressTo(&out, nil, 2); err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(out.Bytes(), refPlain.Bytes()) {
				t.Error("concurrent DecompressTo produced different FASTQ bytes")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
