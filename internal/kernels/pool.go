// Package kernels is the CPU-side kernel execution plane: a shared chunked
// worker pool plus size-classed buffer arenas that together let the
// compression kernels in internal/compress run multicore and allocation-free
// on the live CaSync hot path.
//
// The design mirrors what CompLL does for GPUs (emit highly parallel kernels
// over fixed-size tiles) translated to Go on CPUs:
//
//   - Work is split over *fixed* chunk boundaries (ChunkBytes = 128 KiB of
//     float32s). The chunk geometry depends only on the input length — never
//     on the worker count — so any per-chunk partial results (sums, counts,
//     histograms) combined in ascending chunk order reduce to *bit-identical*
//     output for 1, 2, or N workers. This is the determinism contract the
//     golden tests and the PR-3 checkpoint kill/resume bit-identity lean on.
//
//   - A single shared pool (Default) sized to runtime.GOMAXPROCS(0) serves
//     all kernels. Workers are persistent goroutines parked on a token
//     channel; each Run hands out chunk indices through an atomic counter
//     (work-stealing: fast workers drain more chunks). The calling goroutine
//     participates as worker zero, so a serial run (1 proc, or 1 chunk)
//     executes inline with zero scheduling overhead and zero allocations.
//
//   - Ops are pooled structs implementing the Op interface rather than
//     closures, so the steady-state Run path performs no heap allocation.
//
// The pool has two clients: the compression kernels, whose chunks are fixed
// slices of a tensor, and internal/trainer, whose chunks are data-parallel
// workers (one worker's batch gradient per chunk) and shares of its held-out
// loss evaluation.
package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hipress/internal/telemetry"
)

// ChunkBytes is the fixed chunk granularity of the execution plane.
// 128 KiB sits in the middle of the 64–256 KiB sweet spot: big enough that
// per-chunk dispatch overhead is negligible, small enough that a dozen
// workers load-balance even on few-MiB tensors.
const ChunkBytes = 128 << 10

// ChunkElems is the chunk granularity in float32 elements. It is a multiple
// of 8, so chunk boundaries always land on whole bytes of onebit sign bits
// and on whole bytes of TernGrad's little-endian bit packing — every chunk
// owns a disjoint byte range of the payload.
const ChunkElems = ChunkBytes / 4

// NumChunks returns the number of fixed-geometry chunks covering n elements.
// n==0 yields 0 chunks.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkElems - 1) / ChunkElems
}

// ChunkRange returns the [lo, hi) element range of chunk c for a length-n
// input. The geometry is a pure function of (n, c): it never depends on how
// many workers execute the run.
func ChunkRange(n, c int) (lo, hi int) {
	lo = c * ChunkElems
	hi = lo + ChunkElems
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Op is one chunked kernel launch. RunChunk must be safe to call from
// multiple goroutines for distinct chunk indices; each chunk must touch a
// disjoint region of any shared output.
type Op interface {
	RunChunk(c int)
}

// Pool is a chunked work-stealing worker pool. One Run executes at a time
// (Runs are serialized by an internal mutex); kernels are short, so queueing
// behind the mutex is cheaper and simpler than multiplexing runs.
type Pool struct {
	mu     sync.Mutex // serializes Run
	tokens chan struct{}
	cap    int // number of persistent workers

	// Per-run state, valid only while mu is held by a Run.
	op     Op
	chunks int
	next   atomic.Int64
	chunkW sync.WaitGroup // one Done per completed chunk
	idleW  sync.WaitGroup // one Done per detached worker

	limit atomic.Int64 // SetWorkers cap; <=0 means no limit

	runs         atomic.Int64
	parallelRuns atomic.Int64
	chunksDone   atomic.Int64

	met atomic.Pointer[poolMetrics]
}

type poolMetrics struct {
	runs     *telemetry.Counter
	parallel *telemetry.Counter
	chunks   *telemetry.Counter
	workers  *telemetry.Gauge
}

// NewPool builds a pool with n persistent workers (n<=0 ⇒ GOMAXPROCS(0)).
// The calling goroutine of each Run also executes chunks, so effective
// parallelism is min(n+?, …) as described on Run.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		tokens: make(chan struct{}, n),
		cap:    n,
	}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

var defaultPool = NewPool(0)

// Default returns the shared process-wide pool used by the compress kernels.
func Default() *Pool { return defaultPool }

// SetWorkers caps the effective parallelism of subsequent Runs on the
// default pool (n<=0 removes the cap). It exists for benchmarks and the
// `kernels` experiment, which compare serial vs parallel execution of the
// *same* chunked code. Returns the previous cap.
func SetWorkers(n int) int {
	old := defaultPool.limit.Swap(int64(n))
	defaultPool.publishWorkers()
	return int(old)
}

// Workers reports the effective parallelism the default pool will use for a
// large run (before clamping by chunk count).
func Workers() int { return defaultPool.effective() }

func (p *Pool) effective() int {
	k := p.cap + 1 // persistent workers + the caller
	if g := runtime.GOMAXPROCS(0); k > g {
		k = g
	}
	if lim := int(p.limit.Load()); lim > 0 && k > lim {
		k = lim
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (p *Pool) worker() {
	for range p.tokens {
		p.work()
		p.idleW.Done()
	}
}

// work drains chunk indices until the run is exhausted.
func (p *Pool) work() {
	op, chunks := p.op, p.chunks
	for {
		c := int(p.next.Add(1)) - 1
		if c >= chunks {
			return
		}
		op.RunChunk(c)
		p.chunkW.Done()
	}
}

// Run executes op over `chunks` chunks. Effective parallelism is
// min(workers+caller, GOMAXPROCS, SetWorkers limit, chunks); with
// parallelism 1 (or chunks<=1) the op runs inline on the caller with no
// synchronization at all. Run does not allocate.
//
// An Op must not call Run on the pool it runs on: a parallel Run holds mu
// until its last chunk completes, so a nested parallel Run blocks on mu
// forever. Ops are leaves — the compress kernels, the trainer's per-worker
// gradient and loss passes — and Runs from separate goroutines queue on mu.
func (p *Pool) Run(chunks int, op Op) {
	if chunks <= 0 {
		return
	}
	p.runs.Add(1)
	p.chunksDone.Add(int64(chunks))
	if m := p.met.Load(); m != nil {
		m.runs.Inc()
		m.chunks.Add(float64(chunks))
	}
	k := p.effective()
	if k > chunks {
		k = chunks
	}
	if k <= 1 {
		for c := 0; c < chunks; c++ {
			op.RunChunk(c)
		}
		return
	}
	p.parallelRuns.Add(1)
	if m := p.met.Load(); m != nil {
		m.parallel.Inc()
	}

	p.mu.Lock()
	p.op = op
	p.chunks = chunks
	p.next.Store(0)
	p.chunkW.Add(chunks)
	extra := k - 1 // workers woken in addition to the caller
	p.idleW.Add(extra)
	for i := 0; i < extra; i++ {
		p.tokens <- struct{}{} // happens-before: publishes op/chunks/next
	}
	p.work()        // caller participates
	p.chunkW.Wait() // all chunks complete
	p.idleW.Wait()  // all woken workers detached from run state
	p.op = nil
	p.mu.Unlock()
}

// Stats is a snapshot of pool activity.
type Stats struct {
	Runs         int64 // total Run calls
	ParallelRuns int64 // Runs that engaged >1 worker
	Chunks       int64 // total chunks executed
	Workers      int   // current effective parallelism
}

// PoolStats snapshots the default pool.
func PoolStats() Stats {
	p := defaultPool
	return Stats{
		Runs:         p.runs.Load(),
		ParallelRuns: p.parallelRuns.Load(),
		Chunks:       p.chunksDone.Load(),
		Workers:      p.effective(),
	}
}

// SetTelemetry registers kernel-plane counters (pool runs/chunks/occupancy,
// arena hit rate) on reg. Passing a registry whose methods return nil-safe
// no-op instruments is fine; passing nil unhooks. Used by core.NewLiveCluster
// when a telemetry registry is configured.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		defaultPool.met.Store(nil)
		defaultArena.met.Store(nil)
		return
	}
	pm := &poolMetrics{
		runs:     reg.Counter("kernels_pool_runs_total", "total kernel pool runs"),
		parallel: reg.Counter("kernels_pool_parallel_runs_total", "kernel pool runs that engaged >1 worker"),
		chunks:   reg.Counter("kernels_pool_chunks_total", "total chunks executed by the kernel pool"),
		workers:  reg.Gauge("kernels_pool_workers", "effective kernel pool parallelism"),
	}
	defaultPool.met.Store(pm)
	defaultPool.publishWorkers()
	am := &arenaMetrics{
		gets: reg.Counter("kernels_arena_gets_total", "buffer arena checkout requests"),
		hits: reg.Counter("kernels_arena_hits_total", "buffer arena checkouts served from the pool"),
	}
	defaultArena.met.Store(am)
}

func (p *Pool) publishWorkers() {
	if m := p.met.Load(); m != nil {
		m.workers.Set(float64(p.effective()))
	}
}
