package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosTransport is a fault-injection decorator around any Transport: it
// deterministically (seeded) drops, delays, duplicates, reorders, and
// corrupts messages, and can black out whole links or nodes. The live
// CaSync plane runs unchanged over it — chaos happens strictly between
// Send and the inner transport — which makes it the test harness for the
// deadline/retry/degradation machinery in core.LiveCluster.
//
// Determinism: every fault decision is a pure hash of
// (seed, fault-kind salt, From, To, Step, Attempt, Ack, Gradient). Two
// ChaosTransports built from the same ChaosConfig make identical decisions
// for identical messages regardless of goroutine interleaving, and a
// retransmission (higher Attempt) rolls a fresh outcome — so a lossy link
// is lossy per attempt, not per transfer, and retries eventually get
// through (unless the link is configured Down).

// Link addresses one directed (src → dst) edge of the transport mesh.
type Link struct{ Src, Dst int }

// LinkFaults configures the fault mix on one link (or the default mix for
// all links). Probabilities are in [0, 1] and evaluated independently.
type LinkFaults struct {
	// Drop is the probability a message silently disappears.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Corrupt is the probability one payload byte is flipped in flight.
	Corrupt float64
	// Reorder is the probability a message is delayed by a small random
	// amount so a later message can overtake it (breaks FIFO).
	Reorder float64
	// Delay is the probability a message is delayed by a duration drawn
	// uniformly from [DelayMin, DelayMax].
	Delay              float64
	DelayMin, DelayMax time.Duration
	// Bandwidth, when > 0, caps the link's goodput in bytes per second:
	// each payload occupies the link for len(Payload)/Bandwidth seconds and
	// later messages on the same link queue FIFO behind it. Unlike the
	// probabilistic faults this is a congestion model, not a fault roll —
	// the induced delay is a pure function of payload size and link
	// occupancy, so a run with a deterministic send schedule sees a
	// deterministic queueing schedule. It is how experiments emulate a
	// mid-run fabric degradation (e.g. 100 Gbps → 10 Gbps).
	Bandwidth float64
	// Down blacks the link out entirely: every message is swallowed.
	Down bool
}

// ChaosConfig describes the full fault plane for one transport.
type ChaosConfig struct {
	// Seed drives all deterministic fault decisions.
	Seed uint64
	// Default applies to every link without an explicit entry in Links.
	Default LinkFaults
	// Links overrides the fault mix per directed (src, dst) pair.
	Links map[Link]LinkFaults
	// NodeDown blacks out every link touching the node (both directions):
	// the process-crash / NIC-dead failure mode.
	NodeDown map[int]bool
}

// faultsFor resolves the effective fault mix for a directed link.
func (c *ChaosConfig) faultsFor(from, to int) LinkFaults {
	lf, ok := c.Links[Link{Src: from, Dst: to}]
	if !ok {
		lf = c.Default
	}
	if c.NodeDown[from] || c.NodeDown[to] {
		lf.Down = true
	}
	return lf
}

// ChaosStats counts injected faults; all fields are updated atomically and
// readable while the transport is live.
type ChaosStats struct {
	Sent       int64 // messages offered to the chaos layer
	Delivered  int64 // messages handed to the inner transport (incl. dups)
	Dropped    int64 // messages swallowed by Drop probability
	Duplicated int64 // extra copies injected by Dup probability
	Corrupted  int64 // messages with a flipped payload byte
	Delayed    int64 // messages deferred by Delay or Reorder
	Blackholed int64 // messages swallowed by a Down link or node
}

// snapshot returns a consistent-enough copy for reporting.
func (s *ChaosStats) snapshot() ChaosStats {
	return ChaosStats{
		Sent:       atomic.LoadInt64(&s.Sent),
		Delivered:  atomic.LoadInt64(&s.Delivered),
		Dropped:    atomic.LoadInt64(&s.Dropped),
		Duplicated: atomic.LoadInt64(&s.Duplicated),
		Corrupted:  atomic.LoadInt64(&s.Corrupted),
		Delayed:    atomic.LoadInt64(&s.Delayed),
		Blackholed: atomic.LoadInt64(&s.Blackholed),
	}
}

// ChaosTransport decorates an inner Transport with fault injection.
type ChaosTransport struct {
	inner Transport
	cfg   ChaosConfig
	stats ChaosStats

	once sync.Once
	done chan struct{}
	wg   sync.WaitGroup

	// bwMu guards bwFree, the per-link time at which the serialized tail of
	// the last bandwidth-capped payload clears the link.
	bwMu   sync.Mutex
	bwFree map[Link]time.Time
}

// WrapChaos wraps inner with the given fault plane. cfg is copied; a nil
// cfg yields a transparent wrapper.
func WrapChaos(inner Transport, cfg *ChaosConfig) *ChaosTransport {
	t := &ChaosTransport{inner: inner, done: make(chan struct{}),
		bwFree: map[Link]time.Time{}}
	if cfg != nil {
		t.cfg = *cfg
	}
	return t
}

// Stats returns a snapshot of the fault counters.
func (t *ChaosTransport) Stats() ChaosStats { return t.stats.snapshot() }

// splitmix64 is the standard splitmix64 finalizer: a strong, cheap hash
// used to turn message identity into deterministic fault rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Per-fault-kind salts keep the rolls for different fault types independent.
const (
	saltDrop uint64 = 0xd307_0001
	saltDup  uint64 = 0xd307_0002
	saltCorr uint64 = 0xd307_0003
	saltReor uint64 = 0xd307_0004
	saltDely uint64 = 0xd307_0005
	saltByte uint64 = 0xd307_0006
	saltDur  uint64 = 0xd307_0007
)

// hashMsg folds a message's identity (not its payload) into one 64-bit
// value. Gradient is mixed with an FNV-style loop so distinct names give
// distinct schedules.
func (t *ChaosTransport) hashMsg(salt uint64, msg Message) uint64 {
	h := splitmix64(t.cfg.Seed ^ salt)
	h = splitmix64(h ^ uint64(int64(msg.From))<<1 ^ uint64(int64(msg.To))<<17)
	h = splitmix64(h ^ uint64(int64(msg.Step)))
	h = splitmix64(h ^ uint64(int64(msg.Attempt))<<3)
	if msg.Ack {
		h = splitmix64(h ^ 0xacac_acac)
	}
	if msg.Heartbeat {
		h = splitmix64(h ^ 0xbeab_beab)
	}
	for i := 0; i < len(msg.Gradient); i++ {
		h = (h ^ uint64(msg.Gradient[i])) * 0x100000001b3
	}
	return splitmix64(h)
}

// roll converts a hash to a uniform float in [0, 1).
func roll(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Send implements Transport, applying the configured fault mix.
func (t *ChaosTransport) Send(msg Message) error {
	select {
	case <-t.done:
		return fmt.Errorf("netsim: chaos transport closed")
	default:
	}
	atomic.AddInt64(&t.stats.Sent, 1)
	lf := t.cfg.faultsFor(msg.From, msg.To)

	if lf.Down {
		atomic.AddInt64(&t.stats.Blackholed, 1)
		return nil // swallowed: looks like success to the sender
	}
	if lf.Drop > 0 && roll(t.hashMsg(saltDrop, msg)) < lf.Drop {
		atomic.AddInt64(&t.stats.Dropped, 1)
		return nil
	}
	if lf.Corrupt > 0 && len(msg.Payload) > 0 && roll(t.hashMsg(saltCorr, msg)) < lf.Corrupt {
		p := append([]byte(nil), msg.Payload...)
		idx := int(t.hashMsg(saltByte, msg) % uint64(len(p)))
		p[idx] ^= 0x5a
		msg.Payload = p
		msg.crcOK = false // the cached CRC describes the bytes before the flip
		atomic.AddInt64(&t.stats.Corrupted, 1)
	}

	dup := lf.Dup > 0 && roll(t.hashMsg(saltDup, msg)) < lf.Dup

	var delay time.Duration
	if lf.Delay > 0 && roll(t.hashMsg(saltDely, msg)) < lf.Delay {
		span := lf.DelayMax - lf.DelayMin
		if span < 0 {
			span = 0
		}
		delay = lf.DelayMin
		if span > 0 {
			delay += time.Duration(t.hashMsg(saltDur, msg) % uint64(span))
		}
	}
	if delay == 0 && lf.Reorder > 0 && roll(t.hashMsg(saltReor, msg)) < lf.Reorder {
		// A short deterministic delay is enough to let a later message on
		// the same link overtake this one.
		delay = time.Duration(1+t.hashMsg(saltDur, msg)%4) * time.Millisecond
	}

	if lf.Bandwidth > 0 && len(msg.Payload) > 0 {
		// Serialize the payload onto the link: it occupies the pipe for
		// size/bandwidth, queued FIFO behind whatever is already in flight.
		ser := time.Duration(float64(len(msg.Payload)) / lf.Bandwidth * float64(time.Second))
		l := Link{Src: msg.From, Dst: msg.To}
		now := time.Now() //hipress:wallclock bandwidth-pipe occupancy is real-time by design
		t.bwMu.Lock()
		free := t.bwFree[l]
		if free.Before(now) {
			free = now
		}
		free = free.Add(ser)
		t.bwFree[l] = free
		t.bwMu.Unlock()
		if wait := free.Sub(now); wait > delay {
			delay = wait
		}
	}

	if delay > 0 {
		atomic.AddInt64(&t.stats.Delayed, 1)
		t.wg.Add(1)
		go func(m Message, d time.Duration, dup bool) {
			defer t.wg.Done()
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-t.done:
				return
			case <-timer.C:
			}
			t.deliver(m, dup)
		}(msg, delay, dup)
		return nil
	}
	t.deliver(msg, dup)
	return nil
}

// deliver hands the message (and an optional duplicate) to the inner
// transport, ignoring inner errors on the async path (the transport may
// have closed while the message was in flight — that is a legal fault).
func (t *ChaosTransport) deliver(msg Message, dup bool) {
	if err := t.inner.Send(msg); err == nil {
		atomic.AddInt64(&t.stats.Delivered, 1)
	}
	if dup {
		if err := t.inner.Send(msg); err == nil {
			atomic.AddInt64(&t.stats.Delivered, 1)
			atomic.AddInt64(&t.stats.Duplicated, 1)
		}
	}
}

// Recv implements Transport by delegating to the inner transport.
func (t *ChaosTransport) Recv(node int) (Message, bool) { return t.inner.Recv(node) }

// Close implements Transport: idempotent, waits for in-flight delayed
// deliveries to resolve, then closes the inner transport.
func (t *ChaosTransport) Close() {
	t.once.Do(func() {
		close(t.done)
		t.wg.Wait()
		t.inner.Close()
	})
}
