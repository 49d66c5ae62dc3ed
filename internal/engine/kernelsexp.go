package engine

import (
	"fmt"
	"runtime"
	"time"

	"hipress/internal/compress"
	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// KernelsExp measures the multicore zero-alloc kernel plane with real data:
// per-algorithm encode and decode cost in ns/element and effective raw
// throughput in GB/s, single-worker versus the full pool, plus the realized
// compression ratio. This is the repository's own counterpart to the §4.4
// microbenchmarks — the optimized CPU kernels under test are the ones the
// live plane runs, and the serial column is the same code pinned to one
// worker, so the speedup column isolates the chunked-parallel win. scale
// (0,1] shrinks the tensor for quick runs.
//
// For a worker-count sweep under the Go benchmark harness use:
//
//	go test -bench 'EncodeParallel' -cpu 1,4,8 ./internal/compress/
func KernelsExp(scale float64) (*Table, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := int(float64(4<<20) * scale) // up to 16 MiB of raw float32
	if n < 1<<16 {
		n = 1 << 16
	}
	g := make([]float32, n)
	tensor.NewRNG(9).FillNormal(g, 1)

	t := &Table{
		Title: fmt.Sprintf("kernel plane: chunked parallel codecs, %d elements (%.1f MiB), pool=%d workers",
			n, float64(4*n)/(1<<20), kernels.Workers()),
		Header: []string{"algorithm", "enc-serial(ns/elem)", "enc-pool(ns/elem)", "speedup",
			"enc GB/s", "dec(ns/elem)", "ratio", "allocs"},
		Notes: []string{
			"serial pins the pool to one worker; pool uses all of GOMAXPROCS — payload bytes are identical either way",
			"GB/s is raw gradient bytes per second through the pooled encode; allocs is heap allocations per steady-state encode (arena-leased buffers)",
		},
	}

	const reps = 5
	timeOp := func(f func() error) (float64, error) { // ns/elem, best of reps
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(n), nil
	}

	for _, algo := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		c, err := compress.New(algo, nil)
		if err != nil {
			return nil, err
		}
		dst := make([]byte, compress.MaxEncodedSize(c, n))
		dec := make([]float32, n)
		var payload []byte
		encode := func() error {
			p, err := c.EncodeInto(dst, g)
			payload = p
			return err
		}
		if err := encode(); err != nil { // warm pools outside the timed region
			return nil, err
		}

		old := kernels.SetWorkers(1)
		serial, err := timeOp(encode)
		kernels.SetWorkers(old)
		if err != nil {
			return nil, err
		}
		pooled, err := timeOp(encode)
		if err != nil {
			return nil, err
		}
		decNs, err := timeOp(func() error { return c.DecodeInto(dec, payload) })
		if err != nil {
			return nil, err
		}

		allocs := allocsPerEncode(encode)

		t.AddRow(algo,
			fmt.Sprintf("%.2f", serial),
			fmt.Sprintf("%.2f", pooled),
			fmt.Sprintf("%.2fx", serial/pooled),
			fmt.Sprintf("%.2f", 4/pooled), // 4 bytes per elem / (ns/elem) = GB/s
			fmt.Sprintf("%.2f", decNs),
			fmt.Sprintf("%.3f", float64(len(payload))/float64(4*n)),
			fmt.Sprintf("%.0f", allocs))
	}
	ps := kernels.PoolStats()
	as := kernels.DefaultArenaStats()
	hitRate := 0.0
	if as.Gets > 0 {
		hitRate = float64(as.Hits) / float64(as.Gets)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pool: %d runs (%d parallel), %d chunks; arena: %d checkouts, %.0f%% pool-hit",
		ps.Runs, ps.ParallelRuns, ps.Chunks, as.Gets, 100*hitRate))
	return t, nil
}

// allocsPerEncode counts steady-state heap allocations of one encode using
// the runtime's malloc counter, the way testing.AllocsPerRun (the unit tests'
// assertion) does: on one P, after one warm-up call. A pooled scratch lives
// in a per-P slot, so on more Ps the count would include the first call on
// each P the goroutine happens to reach.
func allocsPerEncode(f func() error) float64 {
	const runs = 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := f(); err != nil {
		return -1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			return -1
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}
