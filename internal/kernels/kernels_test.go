package kernels

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"hipress/internal/telemetry"
)

func TestChunkGeometry(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, 0}, {1, 1}, {ChunkElems - 1, 1}, {ChunkElems, 1},
		{ChunkElems + 1, 2}, {10 * ChunkElems, 10}, {10*ChunkElems + 7, 11},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.want {
			t.Errorf("NumChunks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Ranges must tile [0, n) exactly, in order, regardless of worker count.
	for _, n := range []int{1, 7, ChunkElems, ChunkElems + 1, 3*ChunkElems + 13} {
		prev := 0
		for c := 0; c < NumChunks(n); c++ {
			lo, hi := ChunkRange(n, c)
			if lo != prev || hi <= lo || hi > n {
				t.Fatalf("n=%d chunk %d: bad range [%d,%d) prev=%d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover [0,%d), want [0,%d)", n, prev, n)
		}
	}
	if ChunkElems%8 != 0 {
		t.Fatalf("ChunkElems=%d must be a multiple of 8 for bit-packed payload alignment", ChunkElems)
	}
}

type touchOp struct {
	n    int
	seen []atomic.Int32
}

func (o *touchOp) RunChunk(c int) {
	lo, hi := ChunkRange(o.n, c)
	for i := lo; i < hi; i++ {
		o.seen[i].Add(1)
	}
}

func TestPoolRunsEveryChunkExactlyOnce(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{1, ChunkElems, 5*ChunkElems + 3, 16 * ChunkElems} {
		op := &touchOp{n: n, seen: make([]atomic.Int32, n)}
		p.Run(NumChunks(n), op)
		for i := range op.seen {
			if got := op.seen[i].Load(); got != 1 {
				t.Fatalf("n=%d element %d touched %d times", n, i, got)
			}
		}
	}
}

func TestPoolReuseAcrossRuns(t *testing.T) {
	p := NewPool(3)
	for iter := 0; iter < 50; iter++ {
		n := 2*ChunkElems + iter
		op := &touchOp{n: n, seen: make([]atomic.Int32, n)}
		p.Run(NumChunks(n), op)
		for i := range op.seen {
			if op.seen[i].Load() != 1 {
				t.Fatalf("iter %d: element %d not touched exactly once", iter, i)
			}
		}
	}
}

func TestSetWorkersClampsParallelism(t *testing.T) {
	old := SetWorkers(1)
	defer SetWorkers(old)
	if w := Workers(); w != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(1)", w)
	}
	before := PoolStats()
	op := &touchOp{n: 4 * ChunkElems, seen: make([]atomic.Int32, 4*ChunkElems)}
	Default().Run(4, op)
	after := PoolStats()
	if after.ParallelRuns != before.ParallelRuns {
		t.Fatalf("SetWorkers(1) run still went parallel")
	}
	if after.Runs != before.Runs+1 || after.Chunks != before.Chunks+4 {
		t.Fatalf("stats not advanced: %+v -> %+v", before, after)
	}
}

type nopOp struct{}

func (nopOp) RunChunk(int) {}

func TestPoolRunZeroAlloc(t *testing.T) {
	p := NewPool(2)
	op := &touchOp{n: 8 * ChunkElems, seen: make([]atomic.Int32, 8*ChunkElems)}
	// Warm up.
	p.Run(8, op)
	allocs := testing.AllocsPerRun(20, func() {
		p.Run(8, op)
	})
	if allocs != 0 {
		t.Fatalf("Pool.Run allocates %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		p.Run(1, nopOp{})
	})
	if allocs != 0 {
		t.Fatalf("inline serial Run allocates %v per run, want 0", allocs)
	}
}

func TestLeaseReusesBuffers(t *testing.T) {
	var l Lease
	b := l.Bytes(1000)
	f := l.F32(2000)
	if len(b) != 1000 || len(f) != 2000 {
		t.Fatalf("lease sizes: %d, %d", len(b), len(f))
	}
	b[0], f[0] = 1, 1
	l.Release()

	if raceEnabled {
		t.Skip("sync.Pool bypasses caches under -race; alloc assertion only valid without it")
	}
	// Steady state: same classes should be pool hits and alloc-free.
	allocs := testing.AllocsPerRun(50, func() {
		bb := l.Bytes(1000)
		ff := l.F32(2000)
		bb[999] = 7
		ff[1999] = 7
		l.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state lease cycle allocates %v, want 0", allocs)
	}
	st := DefaultArenaStats()
	if st.Gets == 0 || st.Hits == 0 {
		t.Fatalf("arena stats not advancing: %+v", st)
	}
}

func TestLeaseAdopt(t *testing.T) {
	var round, scratch Lease
	pre := round.Bytes(100) // already held by the destination
	a := scratch.Bytes(200)
	b := scratch.F32(300)
	round.Adopt(&scratch)
	if scratch.head != nil {
		t.Fatal("adopted lease not reset")
	}
	// The adopted buffers must still be writable (not returned to pools).
	pre[99], a[199], b[299] = 1, 2, 3
	// Releasing the destination must return all three: walk the intrusive
	// list before releasing to count what it holds.
	n := 0
	for w := round.head; w != nil; w = w.next {
		n++
	}
	if n != 3 {
		t.Fatalf("destination lease holds %d buffers after Adopt, want 3", n)
	}
	round.Release()
	if round.head != nil {
		t.Fatal("release did not empty the lease")
	}

	// Degenerate cases are no-ops, not corruption.
	var l, empty Lease
	x := l.Bytes(10)
	l.Adopt(nil)
	l.Adopt(&l)
	l.Adopt(&empty)
	n = 0
	for w := l.head; w != nil; w = w.next {
		n++
	}
	if n != 1 {
		t.Fatalf("degenerate Adopts changed the lease: %d buffers, want 1", n)
	}
	x[9] = 1
	l.Release()
}

func TestLeaseOversizeFallsThrough(t *testing.T) {
	var l Lease
	huge := 1<<maxClassBits + 1
	b := l.Bytes(huge)
	if len(b) != huge {
		t.Fatalf("oversize len = %d", len(b))
	}
	l.Release() // must not panic; wrapper recycles, backing dropped
	f := l.F32(huge / 4)
	if len(f) != huge/4 {
		t.Fatalf("oversize f32 len = %d", len(f))
	}
	l.Release()
}

func TestClassFor(t *testing.T) {
	if c := classFor(1); c != 0 || classSize(c) != 1<<minClassBits {
		t.Fatalf("classFor(1) = %d", c)
	}
	if c := classFor(1 << minClassBits); c != 0 {
		t.Fatalf("classFor(min) = %d", c)
	}
	if c := classFor(1<<minClassBits + 1); c != 1 {
		t.Fatalf("classFor(min+1) = %d", c)
	}
	if c := classFor(1 << maxClassBits); c != numClasses-1 {
		t.Fatalf("classFor(max) = %d, want %d", c, numClasses-1)
	}
	if c := classFor(1<<maxClassBits + 1); c != -1 {
		t.Fatalf("classFor(max+1) = %d, want -1", c)
	}
}

func TestSetTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetTelemetry(reg)
	defer SetTelemetry(nil)
	op := &touchOp{n: 2 * ChunkElems, seen: make([]atomic.Int32, 2*ChunkElems)}
	Default().Run(2, op)
	var l Lease
	_ = l.Bytes(64)
	l.Release()
	if v := reg.Counter("kernels_pool_runs_total", "").Value(); v < 1 {
		t.Fatalf("pool runs counter = %v", v)
	}
	if v := reg.Counter("kernels_arena_gets_total", "").Value(); v < 1 {
		t.Fatalf("arena gets counter = %v", v)
	}
}

func TestPoolParallelExecution(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 proc to observe parallel run accounting")
	}
	p := NewPool(4)
	before := p.parallelRuns.Load()
	op := &touchOp{n: 8 * ChunkElems, seen: make([]atomic.Int32, 8*ChunkElems)}
	p.Run(8, op)
	if p.parallelRuns.Load() == before {
		t.Fatalf("expected a parallel run with GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
}

// TestBytesAsF32LE pins the guard on the raw wire view: an aligned whole
// payload is viewed in place; a misaligned, an odd-length and an empty one
// are refused (the caller then converts element by element). Run under
// -race, checkptr would abort on a misaligned cast, so passing there shows
// the guard runs before the conversion. F32AsBytesLE, the inverse view, is
// held to the same: the bytes it shows are the little-endian encoding of the
// floats, aliased, for any non-empty slice — an odd element offset included,
// bytes having no alignment to violate.
func TestBytesAsF32LE(t *testing.T) {
	var l Lease
	defer l.Release()
	b := l.Bytes(64)
	f, ok := BytesAsF32LE(b)
	if !hostLittleEndian {
		if _, back := F32AsBytesLE(make([]float32, 4)); ok || back {
			t.Fatal("big-endian host must take the portable path")
		}
		return
	}
	if !ok || len(f) != 16 {
		t.Fatalf("aligned 64-byte payload: ok=%v len=%d, want a 16-element view", ok, len(f))
	}
	f[3] = 1.5
	if got := [4]byte(b[12:16]); got != [4]byte{0, 0, 0xc0, 0x3f} {
		t.Fatalf("view does not alias the payload: bytes %x", got)
	}
	for name, p := range map[string][]byte{
		"misaligned": b[1:61],
		"odd-length": b[:63],
		"empty":      b[:0],
		"nil":        nil,
	} {
		if f, ok := BytesAsF32LE(p); ok || f != nil {
			t.Errorf("%s payload: got a view (len %d), want the portable path", name, len(f))
		}
	}

	for _, off := range []int{0, 1, 3} {
		src := f[off:]
		for i := range src {
			src[i] = math.Float32frombits(0x7fc00001 + uint32(i)<<8) // NaN payloads must survive
		}
		view, ok := F32AsBytesLE(src)
		if !ok || len(view) != 4*len(src) {
			t.Fatalf("offset %d: ok=%v len=%d, want a %d-byte view", off, ok, len(view), 4*len(src))
		}
		for i, x := range src {
			if got := binary.LittleEndian.Uint32(view[4*i:]); got != math.Float32bits(x) {
				t.Fatalf("offset %d: bytes of element %d read %08x, want %08x", off, i, got, math.Float32bits(x))
			}
		}
		src[0] = 1.5
		if got := [4]byte(view[:4]); got != [4]byte{0, 0, 0xc0, 0x3f} {
			t.Fatalf("offset %d: view does not alias the floats: bytes %x", off, got)
		}
	}
	for name, p := range map[string][]float32{"empty": f[:0], "nil": nil} {
		if v, ok := F32AsBytesLE(p); ok || v != nil {
			t.Errorf("%s slice: got a view (len %d), want the portable path", name, len(v))
		}
	}
}
