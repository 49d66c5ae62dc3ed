package kernels

import (
	"sync"
	"sync/atomic"

	"hipress/internal/telemetry"
)

// The buffer arena hands out reusable byte and float32 buffers from
// size-classed sync.Pools. Buffers are checked out through a Lease: the
// holder accumulates every buffer it takes and returns them all with one
// Release call. On the live path one lease spans a training round — payloads
// handed to the transport stay checked out until the round's sends are
// acknowledged and the round tears down, then the whole lease recycles.
//
// Size classes are powers of two from minClass (1 KiB) up; requests above
// maxClass (64 MiB) fall through to plain make (they are rare enough that
// pinning them in pools would be a leak, not a win).

const (
	minClassBits = 10 // 1 KiB
	maxClassBits = 26 // 64 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// buf is the pooled unit: the wrapper struct itself is what lives in the
// sync.Pool, so a Put never allocates a fresh header.
type buf struct {
	b     []byte
	class int8
	kind  int8 // 0 = bytes, 1 = f32 (tracks which free list it belongs to)
	next  *buf // intrusive list link while held by a Lease
}

type arena struct {
	bytePools [numClasses]sync.Pool
	f32Pools  [numClasses]sync.Pool
	wrappers  sync.Pool // spare *buf wrappers for oversize (unpooled) buffers

	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64

	met atomic.Pointer[arenaMetrics]
}

type arenaMetrics struct {
	gets *telemetry.Counter
	hits *telemetry.Counter
}

var defaultArena = &arena{}

// classFor returns the size-class index for a request of n bytes, or -1 when
// the request exceeds the largest class.
func classFor(n int) int {
	c := 0
	for size := 1 << minClassBits; size < n; size <<= 1 {
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

func classSize(c int) int { return 1 << (minClassBits + c) }

// Lease is a checkout scope for arena buffers. The zero value is ready to
// use. Leases are not safe for concurrent use; on the live path each round
// owns its own lease.
type Lease struct {
	head *buf
}

// Bytes checks out a []byte of length n (capacity may be larger). Contents
// are unspecified — callers that need zeroed memory must clear it.
func (l *Lease) Bytes(n int) []byte {
	b := defaultArena.get(n, 0)
	b.next = l.head
	l.head = b
	return b.b[:n]
}

// F32 checks out a []float32 of length n. Contents are unspecified.
func (l *Lease) F32(n int) []float32 {
	b := defaultArena.get(n*4, 1)
	b.next = l.head
	l.head = b
	return bytesAsF32(b.b)[:n]
}

// Adopt splices every buffer held by other into l and resets other, so the
// adopted buffers now release with l. This is the multi-lease checkout
// pattern of the pipelined live plane: a sender checks buffers out through
// a private scratch lease without contending on the round lease's lock,
// then hands ownership over once the payload is staged. Both leases must be
// externally synchronized as usual; adopting a lease into itself or an
// empty/nil lease is a no-op.
func (l *Lease) Adopt(other *Lease) {
	if other == nil || other == l || other.head == nil {
		return
	}
	tail := other.head
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = l.head
	l.head = other.head
	other.head = nil
}

// Release returns every buffer checked out through the lease to the arena
// and resets the lease for reuse. Buffers must no longer be referenced by
// the caller after Release.
func (l *Lease) Release() {
	for b := l.head; b != nil; {
		next := b.next
		b.next = nil
		defaultArena.put(b)
		b = next
	}
	l.head = nil
}

func (a *arena) get(n int, kind int8) *buf {
	a.gets.Add(1)
	m := a.met.Load()
	if m != nil {
		m.gets.Inc()
	}
	c := classFor(n)
	if c < 0 {
		// Oversize: plain allocation, wrapper still pooled.
		w, _ := a.wrappers.Get().(*buf)
		if w == nil {
			w = &buf{}
		}
		w.b = make([]byte, n)
		w.class = -1
		w.kind = kind
		return w
	}
	pool := &a.bytePools[c]
	if kind == 1 {
		pool = &a.f32Pools[c]
	}
	if w, _ := pool.Get().(*buf); w != nil {
		a.hits.Add(1)
		if m != nil {
			m.hits.Inc()
		}
		return w
	}
	var backing []byte
	if kind == 1 {
		// Allocate via []float32 so the backing array is 4-byte aligned by
		// construction (it always is in practice, but make it explicit).
		backing = f32AsBytes(make([]float32, classSize(c)/4))
	} else {
		backing = make([]byte, classSize(c))
	}
	return &buf{b: backing, class: int8(c), kind: kind}
}

func (a *arena) put(w *buf) {
	a.puts.Add(1)
	if w.class < 0 {
		w.b = nil // drop oversize backing, recycle only the wrapper
		a.wrappers.Put(w)
		return
	}
	w.b = w.b[:classSize(int(w.class))]
	if w.kind == 1 {
		a.f32Pools[w.class].Put(w)
	} else {
		a.bytePools[w.class].Put(w)
	}
}

// ArenaStats reports checkout traffic on the default arena.
type ArenaStats struct {
	Gets int64 // total checkouts
	Hits int64 // checkouts served from a pool (no allocation)
	Puts int64 // buffers handed back by Release; Gets-Puts are still checked out (or were left to the GC)
}

// DefaultArenaStats snapshots the default arena.
func DefaultArenaStats() ArenaStats {
	return ArenaStats{Gets: defaultArena.gets.Load(), Hits: defaultArena.hits.Load(), Puts: defaultArena.puts.Load()}
}
