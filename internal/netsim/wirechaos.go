package netsim

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireChaos is the socket plane's fault injector. Where ChaosTransport
// perturbs whole messages, WireChaos wraps the real net.Conn under the
// framing layer and breaks the byte stream itself — faults the
// message-level injector structurally cannot express:
//
//   - mid-stream cuts: the connection is severed partway through a frame
//     (SetLinger(0) turns the close into an RST), leaving the receiver
//     holding a truncated frame;
//   - byte corruption: one wire byte is flipped in flight, so the frame
//     decodes to garbage (or the length prefix claims gigabytes);
//   - stalls: a write parks for a configured duration, exercising write
//     deadlines and the health plane's RTT estimators;
//   - one-way partitions: writes on a directed link are silently
//     swallowed while the reverse direction still works (the classic
//     half-open failure);
//   - accept-time blackouts: a node's listener completes the TCP handshake
//     but the connection is closed before service, so dialers see an
//     established-then-dead socket.
//
// All faults are a pure function of (Seed, link, connection generation):
// two transports configured identically inject identically, independent of
// scheduling. Per-connection fault points are drawn once at wrap time.
type WireChaosConfig struct {
	// Seed drives every deterministic draw.
	Seed uint64
	// CutProb is the per-connection probability of a mid-stream cut.
	CutProb float64
	// CutAfterMin/Max bound where the cut lands, in bytes written on the
	// connection (HELLO included). The cut point is drawn uniformly from
	// [CutAfterMin, CutAfterMax]; defaults [helloLen+1, helloLen+4096] so
	// the handshake itself always survives and the cut truncates a frame.
	CutAfterMin, CutAfterMax int
	// CorruptProb is the per-connection probability of flipping one wire
	// byte at an offset drawn from [helloLen, helloLen+CorruptWindow)
	// (default window 4096). The HELLO is never corrupted: a poisoned
	// generation in the handshake could wedge the link's admission state
	// forever, which is a different failure class than wire noise.
	CorruptProb   float64
	CorruptWindow int
	// StallProb is the per-connection probability that one write parks for
	// StallFor before proceeding (default 50ms).
	StallProb float64
	StallFor  time.Duration
	// OneWay blackholes every write on the listed directed links: the
	// write claims success but no byte leaves.
	OneWay map[Link]bool
	// AcceptBlackout[node] closes that node's first N accepted connections
	// immediately after the TCP handshake.
	AcceptBlackout map[int]int
}

// WireChaosStats counts injected wire-level faults.
type WireChaosStats struct {
	Conns            int64 // connections wrapped
	Cuts             int64 // mid-stream cuts injected
	CorruptedBytes   int64 // wire bytes flipped
	Stalls           int64 // stalled writes
	BlackholedWrites int64 // writes swallowed by one-way partitions
	AcceptDrops      int64 // accepted connections blacked out
}

// wireChaos is the transport-internal injector state. All methods are safe
// on a nil receiver (the no-chaos fast path).
type wireChaos struct {
	cfg   WireChaosConfig
	stats WireChaosStats // fields updated atomically

	mu         sync.Mutex
	acceptSeen map[int]int // accepts consumed per node (blackout budget)
}

// newWireChaos builds the injector; nil config disables it.
func newWireChaos(cfg *WireChaosConfig) *wireChaos {
	if cfg == nil {
		return nil
	}
	c := *cfg
	if c.CutAfterMin <= 0 {
		c.CutAfterMin = helloLen + 1
	}
	if c.CutAfterMax < c.CutAfterMin {
		c.CutAfterMax = c.CutAfterMin + 4096
	}
	if c.CorruptWindow <= 0 {
		c.CorruptWindow = 4096
	}
	if c.StallFor <= 0 {
		c.StallFor = 50 * time.Millisecond
	}
	return &wireChaos{cfg: c, acceptSeen: map[int]int{}}
}

// snapshot returns the counters (nil when chaos is off).
func (w *wireChaos) snapshot() *WireChaosStats {
	if w == nil {
		return nil
	}
	return &WireChaosStats{
		Conns:            atomic.LoadInt64(&w.stats.Conns),
		Cuts:             atomic.LoadInt64(&w.stats.Cuts),
		CorruptedBytes:   atomic.LoadInt64(&w.stats.CorruptedBytes),
		Stalls:           atomic.LoadInt64(&w.stats.Stalls),
		BlackholedWrites: atomic.LoadInt64(&w.stats.BlackholedWrites),
		AcceptDrops:      atomic.LoadInt64(&w.stats.AcceptDrops),
	}
}

// acceptDrop reports whether this accept on node falls inside the node's
// blackout budget.
func (w *wireChaos) acceptDrop(node int) bool {
	if w == nil || len(w.cfg.AcceptBlackout) == 0 {
		return false
	}
	budget, ok := w.cfg.AcceptBlackout[node]
	if !ok {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.acceptSeen[node] >= budget {
		return false
	}
	w.acceptSeen[node]++
	atomic.AddInt64(&w.stats.AcceptDrops, 1)
	return true
}

// hash draws one 64-bit value from the (seed, link, gen, salt) stream.
func (w *wireChaos) hash(l Link, gen uint32, salt uint64) uint64 {
	h := splitmix64(w.cfg.Seed ^ salt)
	h = splitmix64(h ^ uint64(uint32(l.Src))<<32 ^ uint64(uint32(l.Dst)))
	return splitmix64(h ^ uint64(gen))
}

// wrap decorates a dialed connection with this link+generation's planned
// faults. Returns c unchanged when chaos is off or nothing is planned.
func (w *wireChaos) wrap(c net.Conn, l Link, gen uint32) net.Conn {
	if w == nil {
		return c
	}
	wc := &wireConn{Conn: c, chaos: w, link: l}
	planned := false
	if roll(w.hash(l, gen, 0xd30c_0001)) < w.cfg.CutProb {
		span := w.cfg.CutAfterMax - w.cfg.CutAfterMin + 1
		wc.cutAt = w.cfg.CutAfterMin + int(w.hash(l, gen, 0xd30c_0002)%uint64(span))
		planned = true
	}
	if roll(w.hash(l, gen, 0xd30c_0003)) < w.cfg.CorruptProb {
		wc.corruptAt = helloLen + int(w.hash(l, gen, 0xd30c_0004)%uint64(w.cfg.CorruptWindow))
		planned = true
	}
	if roll(w.hash(l, gen, 0xd30c_0005)) < w.cfg.StallProb {
		wc.stallAt = true
		planned = true
	}
	if w.cfg.OneWay[l] {
		wc.oneway = true
		planned = true
	}
	atomic.AddInt64(&w.stats.Conns, 1)
	if !planned {
		return c
	}
	return wc
}

// wireConn implements the planned faults on the write path. Writes on one
// connection are serialized by the transport (the dial lock for the HELLO,
// then the per-connection write mutex for frames), so the off counter needs
// no further synchronization.
type wireConn struct {
	net.Conn
	chaos *wireChaos
	link  Link

	cutAt     int  // sever after this many bytes (0 = never)
	corruptAt int  // flip the byte at this offset (0 = never; HELLO excluded)
	stallAt   bool // park the first frame write once
	oneway    bool // swallow every write

	off int // bytes accounted so far
	cut bool
}

// Write applies the fault plan, then forwards to the real socket.
func (c *wireConn) Write(b []byte) (int, error) {
	if c.oneway {
		// One-way partition: the write "succeeds" but nothing leaves.
		atomic.AddInt64(&c.chaos.stats.BlackholedWrites, 1)
		c.off += len(b)
		return len(b), nil
	}
	if c.cut {
		return 0, fmt.Errorf("netsim: wire chaos: connection %d→%d already cut", c.link.Src, c.link.Dst)
	}
	if c.stallAt && c.off >= helloLen {
		c.stallAt = false
		atomic.AddInt64(&c.chaos.stats.Stalls, 1)
		time.Sleep(c.chaos.cfg.StallFor)
	}
	if c.corruptAt > 0 && c.off <= c.corruptAt && c.corruptAt < c.off+len(b) {
		// Flip one byte on a copy — the caller's frame buffer may be
		// retransmitted intact after the redial.
		dirty := append([]byte(nil), b...)
		dirty[c.corruptAt-c.off] ^= 0x20
		atomic.AddInt64(&c.chaos.stats.CorruptedBytes, 1)
		c.corruptAt = 0
		b = dirty
	}
	if c.cutAt > 0 && c.off+len(b) > c.cutAt {
		// Sever mid-frame: deliver the prefix, then RST.
		prefix := c.cutAt - c.off
		if prefix > 0 {
			c.Conn.Write(b[:prefix])
		}
		c.cut = true
		atomic.AddInt64(&c.chaos.stats.Cuts, 1)
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // close sends RST, discarding buffered bytes
		}
		c.Conn.Close()
		return prefix, fmt.Errorf("netsim: wire chaos: cut connection %d→%d after %d bytes",
			c.link.Src, c.link.Dst, c.cutAt)
	}
	n, err := c.Conn.Write(b)
	c.off += n
	return n, err
}
