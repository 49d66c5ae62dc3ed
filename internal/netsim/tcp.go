package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/kernels"
	"hipress/internal/telemetry"
)

// This file is the socket plane: the production-grade connection-lifecycle
// layer that runs the same CaSync task graphs over genuine loopback TCP.
// Unlike the original transport patch, connections here carry an explicit
// session generation negotiated by a tiny HELLO handshake, so any mid-frame
// failure (a write timeout after a partial frame, a wire-chaos cut, a
// half-open peer) is recovered by redialing with a fresh generation: the
// receiver discards the broken stream at a clean frame boundary and resyncs
// onto the new one, rejecting stale-generation frames outright.
//
// Frame format v2 (little-endian), after the u32 length prefix:
//
//	u32 fsum | u8 version (=2) | u32 gen | u32 from | u32 to | u64 step |
//	u32 sum | u16 attempt | u8 flags (bit0 = Ack, bit1 = Heartbeat,
//	bit2 = AckBatch) | u16 gradLen | grad | payload
//
// With bit2 set the payload region carries a batched acknowledgement
// instead of gradient bytes:
//
//	u16 count | count × (u64 step | u16 attempt | u16 gradLen | grad)
//
// The encoding is canonical (count ≥ 1, no trailing bytes), so an accepted
// batch frame round-trips exactly like every other frame. fsum covers the
// batch like any body byte: a wire-corrupted batch is dropped whole, the
// unacknowledged senders retransmit, and the receiver's dedup path re-acks
// — the same recovery as a lost standalone ack.
//
// fsum is a CRC-32 (IEEE) over every body byte after itself. The live
// plane's own checksum (sum) only covers the payload, so without fsum a
// wire-corrupted header field (from/to/step/gradient name) would decode as
// a structurally valid message with the wrong routing or dedup key — worst
// case silently merging one peer's bytes under another's slot. With fsum
// any in-frame bit flip is rejected here, the frame never reaches the live
// plane, and the reliable layer's retransmission repairs the loss.
//
// The two checksums share one pass over the payload per side (frameSum): the
// sender derives fsum from the payload CRC its producer cached in the Message,
// the receiver hands the one it computed up in the same cache.
//
// Every dialed connection opens with a 13-byte HELLO:
//
//	u32 magic "HPS2" | u8 version (=2) | u32 src | u32 gen
//
// The receiver accepts the stream only when gen strictly exceeds the last
// generation seen on that directed link; an accepted supersession of a
// previously-seen generation counts as one resync.

// frameVersion is the wire-format version carried by both the HELLO and
// every frame; a mismatch drops the connection before any allocation.
const frameVersion = 2

// frameHdrLen is the fixed v2 frame header length after the u32 length
// prefix: fsum, version, gen, from, to, step, sum, attempt, flags, gradLen.
const frameHdrLen = 4 + 1 + 4 + 4 + 4 + 8 + 4 + 2 + 1 + 2

// helloMagic spells "HPS2" when the HELLO's first four bytes are read
// little-endian.
const helloMagic uint32 = 'H' | 'P'<<8 | 'S'<<16 | '2'<<24

// helloLen is the handshake length: magic, version, src, gen.
const helloLen = 4 + 1 + 4 + 4

// Socket-plane defaults. MaxFrameLen caps a frame's claimed length before
// any allocation: a corrupt length prefix must not reserve gigabytes.
const (
	defaultMaxFrameLen      = 64 << 20 // 64 MiB
	defaultWriteTimeout     = 5 * time.Second
	defaultHandshakeTimeout = 5 * time.Second
	defaultIdleReadTimeout  = 30 * time.Second
	defaultRedialAttempts   = 2
	closeDrainTimeout       = 250 * time.Millisecond
)

// Socket-plane constants. dialTimeout bounds one connection attempt. The
// waits between redial cycles are capped-exponential from redialBaseBackoff to
// redialMaxBackoff, each drawn full-jitter from (0, d] with the splitmix64
// stream seeded by redialSeed, so concurrent senders against one recovering
// peer desynchronize deterministically.
const (
	dialTimeout       = 2 * time.Second
	redialBaseBackoff = 2 * time.Millisecond
	redialMaxBackoff  = 50 * time.Millisecond
	redialSeed        = 0x9e3779b97f4a7c15
)

// corruptFrameTolerance is how many CONSECUTIVE undecodable frame bodies a
// stream survives before it is declared desynced and killed. A lone in-body
// bit flip leaves the length-prefix framing intact: dropping just that frame
// lets the reliable layer retransmit on the same connection (past a chaos
// injector's corrupt window), where killing the stream would redial into a
// fresh corrupt window and livelock. A genuinely desynced stream (corrupted
// length prefix that still parsed as plausible) produces garbage frame after
// garbage frame and trips the tolerance immediately.
const corruptFrameTolerance = 2

// Socket-plane metric family names (registered through TCPOptions.Metrics).
const (
	MetricTCPDials            = "hipress_tcp_dials_total"
	MetricTCPRedials          = "hipress_tcp_redials_total"
	MetricTCPResyncs          = "hipress_tcp_resyncs_total"
	MetricTCPCorruptFrames    = "hipress_tcp_corrupt_frames_total"
	MetricTCPDroppedFrames    = "hipress_tcp_dropped_frames_total"
	MetricTCPStaleConns       = "hipress_tcp_stale_conns_total"
	MetricTCPStaleFrames      = "hipress_tcp_stale_frames_total"
	MetricTCPIdleDrops        = "hipress_tcp_idle_drops_total"
	MetricTCPAcceptDrops      = "hipress_tcp_accept_drops_total"
	MetricTCPHandshakeRejects = "hipress_tcp_handshake_rejects_total"
	MetricTCPActiveConns      = "hipress_tcp_active_conns"
	MetricTCPHandshakeSeconds = "hipress_tcp_handshake_seconds"
)

// TCPOptions tunes the socket plane's connection lifecycle. The zero value
// takes the defaults above; NewTCPTransport uses it unchanged.
type TCPOptions struct {
	// MaxFrameLen rejects any frame whose length prefix claims more than
	// this many bytes, before allocating (default 64 MiB).
	MaxFrameLen int
	// WriteTimeout bounds one frame write against a stalled peer
	// (default 5s; negative disables).
	WriteTimeout time.Duration
	// HandshakeTimeout bounds how long an accepted connection may sit
	// without delivering its HELLO (default 5s).
	HandshakeTimeout time.Duration
	// IdleReadTimeout kills a half-open connection: a peer that holds the
	// socket open but never sends another frame is dropped after this much
	// read silence (default 30s; negative disables).
	IdleReadTimeout time.Duration
	// RedialAttempts is how many fresh-generation redial+retransmit cycles
	// one Send performs after a write failure before surfacing a typed
	// *ConnError (default 2; negative disables redialing).
	RedialAttempts int
	// Chaos, when non-nil, wraps every dialed connection in the wire-level
	// fault injector (wirechaos.go): deterministic mid-stream cuts, byte
	// corruption, stalls, one-way partitions, accept-time blackouts.
	Chaos *WireChaosConfig
	// Metrics, when non-nil, publishes the transport's lifecycle counters
	// (redials, resyncs, corrupt/dropped frames, active connections, a
	// handshake latency histogram). Nil disables them at zero cost.
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.MaxFrameLen <= 0 {
		o.MaxFrameLen = defaultMaxFrameLen
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = defaultHandshakeTimeout
	}
	if o.IdleReadTimeout == 0 {
		o.IdleReadTimeout = defaultIdleReadTimeout
	}
	if o.RedialAttempts == 0 {
		o.RedialAttempts = defaultRedialAttempts
	}
	if o.RedialAttempts < 0 {
		o.RedialAttempts = 0
	}
	return o
}

// ErrUnsendable marks a message the frame format cannot carry. Retrying it
// cannot succeed: callers must not treat it as a transient send failure.
var ErrUnsendable = errors.New("netsim: message does not fit the frame format")

// FrameLimitError is Send's typed rejection of a message that would
// overflow a frame v2 field — a u16 gradient-name length, attempt counter
// or ack-batch count, or the transport's MaxFrameLen. Send returns it
// before any byte is written or any connection dialed; it unwraps to
// ErrUnsendable.
type FrameLimitError struct {
	// From, To name the directed link.
	From, To int
	// Field names the overflowing quantity: "gradient name length",
	// "attempt", "ack batch count", "frame length".
	Field string
	// Got is the offending value and Limit the largest the field carries.
	Got, Limit int
}

// Error implements error.
func (e *FrameLimitError) Error() string {
	return fmt.Sprintf("netsim: tcp send %d→%d: %s %d outside [0, %d]", e.From, e.To, e.Field, e.Got, e.Limit)
}

// Unwrap exposes the non-retryable sentinel.
func (e *FrameLimitError) Unwrap() error { return ErrUnsendable }

// checkSendable validates msg against the frame format's field widths and
// the frame length cap, so an unrepresentable message fails at its sender
// instead of being truncated on the wire or killing the receiving stream.
func checkSendable(msg Message, maxFrameLen int) error {
	limit := func(field string, got, max int) error {
		if got < 0 || got > max {
			return &FrameLimitError{From: msg.From, To: msg.To, Field: field, Got: got, Limit: max}
		}
		return nil
	}
	if err := limit("gradient name length", len(msg.Gradient), math.MaxUint16); err != nil {
		return err
	}
	if err := limit("attempt", msg.Attempt, math.MaxUint16); err != nil {
		return err
	}
	body := len(msg.Payload)
	if len(msg.AckBatch) > 0 {
		if err := limit("ack batch count", len(msg.AckBatch), math.MaxUint16); err != nil {
			return err
		}
		body = 2
		for _, ref := range msg.AckBatch {
			if err := limit("gradient name length", len(ref.Gradient), math.MaxUint16); err != nil {
				return err
			}
			if err := limit("attempt", ref.Attempt, math.MaxUint16); err != nil {
				return err
			}
			body += 12 + len(ref.Gradient)
		}
	}
	return limit("frame length", frameHdrLen+len(msg.Gradient)+body, maxFrameLen)
}

// ConnError is Send's typed failure: the connection lifecycle exhausted its
// redial budget on one directed link. The live plane surfaces it as
// reconnect evidence for the health plane; Unwrap exposes the final
// underlying error (so errors.As still finds a net.Error timeout).
type ConnError struct {
	// From, To name the directed link.
	From, To int
	// Gen is the session generation of the last failed attempt.
	Gen uint32
	// Redials is how many fresh-generation redial cycles were attempted.
	Redials int
	// Timeout records whether the final failure was a net.Error timeout
	// (a stalled peer) rather than a hard connection error.
	Timeout bool
	// Err is the final underlying error.
	Err error
}

// Error implements error.
func (e *ConnError) Error() string {
	kind := "failed"
	if e.Timeout {
		kind = "timed out (peer stalled)"
	}
	return fmt.Sprintf("netsim: tcp send %d→%d %s after %d redial(s) (gen %d): %v",
		e.From, e.To, kind, e.Redials, e.Gen, e.Err)
}

// Unwrap exposes the underlying error.
func (e *ConnError) Unwrap() error { return e.Err }

// TCPStats is a snapshot of the socket plane's lifecycle counters.
type TCPStats struct {
	Dials            int64 // connections dialed (including redials)
	Redials          int64 // fresh-generation redial cycles after a failure
	Resyncs          int64 // accepted generations superseding a broken stream
	StaleConns       int64 // handshakes rejected for a non-advancing generation
	StaleFrames      int64 // frames rejected for a generation mismatch
	CorruptFrames    int64 // frames rejected by length/format validation
	DroppedFrames    int64 // decoded frames discarded (close-time drain, misrouted)
	IdleDrops        int64 // half-open connections killed by the idle read deadline
	AcceptDrops      int64 // accepted connections blacked out by wire chaos
	HandshakeRejects int64 // connections dropped before a valid HELLO
	ActiveConns      int64 // currently-open accepted connections
}

// tcpConn is one dial-side connection: the socket, its session generation,
// and the write lock that keeps frames from interleaving. The lock also
// guards the reused frame head and the two-element vector handed to the
// vectored write, so a steady-state send allocates nothing.
type tcpConn struct {
	c   net.Conn
	gen uint32
	wmu sync.Mutex

	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

// TCPTransport implements Transport over real loopback TCP sockets: each
// node owns a listener, connections are dialed lazily per (src, dst) pair
// with a generation handshake, and messages travel as length-prefixed v2
// frames. It is the closest-to-production live substrate — the same CaSync
// task graphs that run over channels run unchanged over genuine sockets
// (see core.LiveConfig.Transport).
type TCPTransport struct {
	inboxes
	opts      TCPOptions
	listeners []net.Listener
	chaos     *wireChaos // nil without fault injection

	mu       sync.Mutex
	conns    map[[2]int]*tcpConn // (src,dst) → dialed connection
	genCtr   map[[2]int]uint32   // next session generation per directed link
	lastGen  map[[2]int]uint32   // highest accepted generation per directed link
	accepted map[net.Conn]bool   // live accepted connections (force-closed by Close)
	drained  chan struct{}       // made by Close, closed once accepted is empty

	redialCtr atomic.Uint64
	stats     TCPStats // fields updated atomically
	names     nameTable

	once sync.Once
	wg   sync.WaitGroup
}

// NewTCPTransport starts listeners for n nodes on loopback with default
// options. Callers must Close it to release sockets.
func NewTCPTransport(n, capacity int) (*TCPTransport, error) {
	return NewTCPTransportOpts(n, capacity, TCPOptions{})
}

// NewTCPTransportOpts starts listeners for n nodes on loopback and returns
// the connected transport. Callers must Close it to release sockets.
func NewTCPTransportOpts(n, capacity int, opts TCPOptions) (*TCPTransport, error) {
	o := opts.withDefaults()
	t := &TCPTransport{
		inboxes:   newInboxes(n, capacity),
		opts:      o,
		listeners: make([]net.Listener, n),
		chaos:     newWireChaos(o.Chaos),
		conns:     map[[2]int]*tcpConn{},
		genCtr:    map[[2]int]uint32{},
		lastGen:   map[[2]int]uint32{},
		accepted:  map[net.Conn]bool{},
		names:     nameTable{m: map[string]string{}},
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("netsim: listen for node %d: %w", i, err)
		}
		t.listeners[i] = l
		t.wg.Add(1)
		go t.acceptLoop(i, l)
	}
	return t, nil
}

// Addr returns node i's listen address (tests and diagnostics).
func (t *TCPTransport) Addr(i int) net.Addr { return t.listeners[i].Addr() }

// Stats snapshots the lifecycle counters.
func (t *TCPTransport) Stats() TCPStats {
	return TCPStats{
		Dials:            atomic.LoadInt64(&t.stats.Dials),
		Redials:          atomic.LoadInt64(&t.stats.Redials),
		Resyncs:          atomic.LoadInt64(&t.stats.Resyncs),
		StaleConns:       atomic.LoadInt64(&t.stats.StaleConns),
		StaleFrames:      atomic.LoadInt64(&t.stats.StaleFrames),
		CorruptFrames:    atomic.LoadInt64(&t.stats.CorruptFrames),
		DroppedFrames:    atomic.LoadInt64(&t.stats.DroppedFrames),
		IdleDrops:        atomic.LoadInt64(&t.stats.IdleDrops),
		AcceptDrops:      atomic.LoadInt64(&t.stats.AcceptDrops),
		HandshakeRejects: atomic.LoadInt64(&t.stats.HandshakeRejects),
		ActiveConns:      atomic.LoadInt64(&t.stats.ActiveConns),
	}
}

// WireStats snapshots the wire-chaos injector's counters (nil when the
// transport runs without fault injection).
func (t *TCPTransport) WireStats() *WireChaosStats { return t.chaos.snapshot() }

// count bumps one lifecycle counter and its metric family together.
func (t *TCPTransport) count(field *int64, metric, help string) {
	atomic.AddInt64(field, 1)
	t.opts.Metrics.Counter(metric, help).Inc()
}

func (t *TCPTransport) acceptLoop(node int, l net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if t.chaos.acceptDrop(node) {
			// Accept-time blackout: the TCP handshake succeeded (the dialer
			// sees an established connection) but the node never services it.
			t.count(&t.stats.AcceptDrops, MetricTCPAcceptDrops,
				"accepted connections blacked out by wire chaos")
			conn.Close()
			continue
		}
		t.mu.Lock()
		select {
		case <-t.done:
			t.mu.Unlock()
			conn.Close()
			return
		default:
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		atomic.AddInt64(&t.stats.ActiveConns, 1)
		t.opts.Metrics.Gauge(MetricTCPActiveConns, "currently-open accepted connections").Add(1)
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

// readLoop services one accepted connection: HELLO handshake, generation
// admission, then length-prefixed frames under an idle read deadline.
func (t *TCPTransport) readLoop(node int, conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		if delete(t.accepted, conn); len(t.accepted) == 0 && t.drained != nil {
			close(t.drained) // once: nothing joins accepted after Close made drained
		}
		t.mu.Unlock()
		atomic.AddInt64(&t.stats.ActiveConns, -1)
		t.opts.Metrics.Gauge(MetricTCPActiveConns, "currently-open accepted connections").Add(-1)
	}()

	// Handshake: the stream is inadmissible until a valid HELLO advances
	// the directed link's generation.
	if d := t.opts.HandshakeTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(d)) //hipress:wallclock socket deadline arithmetic
	}
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.count(&t.stats.HandshakeRejects, MetricTCPHandshakeRejects,
			"connections dropped before a valid HELLO")
		return
	}
	src, gen, err := decodeHello(hello[:])
	if err != nil {
		t.count(&t.stats.HandshakeRejects, MetricTCPHandshakeRejects,
			"connections dropped before a valid HELLO")
		return
	}
	key := [2]int{src, node}
	t.mu.Lock()
	last := t.lastGen[key]
	stale := gen <= last
	if !stale {
		t.lastGen[key] = gen
	}
	t.mu.Unlock()
	if stale {
		// A generation that does not advance is a leftover of a superseded
		// stream (or a replay): reject the whole connection.
		t.count(&t.stats.StaleConns, MetricTCPStaleConns,
			"handshakes rejected for a non-advancing generation")
		return
	}
	if last > 0 {
		// This link had an earlier stream that died (possibly mid-frame);
		// the fresh generation resynchronizes it at a clean frame boundary.
		t.count(&t.stats.Resyncs, MetricTCPResyncs,
			"connection generations accepted over a superseded stream")
	}

	fr := frameReader{r: conn, maxLen: t.opts.MaxFrameLen, names: &t.names}
	corrupt := 0 // consecutive undecodable frame bodies on this stream
	for {
		if d := t.opts.IdleReadTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d)) //hipress:wallclock socket deadline arithmetic
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		msg, fgen, err := fr.next()
		if err != nil {
			var ferr *frameError
			if !errors.As(err, &ferr) {
				var nerr net.Error
				if isNetTimeout(err, &nerr) {
					// Half-open peer: the socket is alive but nothing arrives.
					t.count(&t.stats.IdleDrops, MetricTCPIdleDrops,
						"half-open connections killed by the idle read deadline")
				}
				return
			}
			t.count(&t.stats.CorruptFrames, MetricTCPCorruptFrames,
				"frames rejected by length/format validation")
			// A consumed body means the length prefix was consistent, so
			// framing still holds: drop the bad frame in place and let the
			// reliable layer retransmit on this connection. Only consecutive
			// failures — the signature of a desynced stream — kill it.
			if corrupt++; !ferr.framed || corrupt > corruptFrameTolerance {
				return
			}
			continue
		}
		corrupt = 0
		if fgen != gen {
			// A frame from another generation on this stream means the
			// sender state-machine is broken; kill the connection.
			t.count(&t.stats.StaleFrames, MetricTCPStaleFrames,
				"frames rejected for a session-generation mismatch")
			msg.Lease.Release()
			return
		}
		if msg.To != node {
			t.count(&t.stats.DroppedFrames, MetricTCPDroppedFrames,
				"decoded frames discarded (drain or misrouted)")
			msg.Lease.Release()
			continue
		}
		// Graceful drain: prefer a non-blocking delivery so frames already
		// on the wire at Close still land while the inbox has room.
		select {
		case t.ch[node] <- msg:
			continue
		default:
		}
		select {
		case <-t.done:
			t.count(&t.stats.DroppedFrames, MetricTCPDroppedFrames,
				"decoded frames discarded (drain or misrouted)")
			msg.Lease.Release()
			return
		case t.ch[node] <- msg:
		}
	}
}

// encodeHello builds the 13-byte handshake.
func encodeHello(src int, gen uint32) []byte {
	var out [helloLen]byte
	binary.LittleEndian.PutUint32(out[0:], helloMagic)
	out[4] = frameVersion
	binary.LittleEndian.PutUint32(out[5:], uint32(int32(src)))
	binary.LittleEndian.PutUint32(out[9:], gen)
	return out[:]
}

// decodeHello validates the handshake and returns (src, gen).
func decodeHello(b []byte) (int, uint32, error) {
	if len(b) != helloLen {
		return 0, 0, fmt.Errorf("netsim: hello is %d bytes, want %d", len(b), helloLen)
	}
	if binary.LittleEndian.Uint32(b[0:]) != helloMagic {
		return 0, 0, fmt.Errorf("netsim: hello magic %08x != %08x", binary.LittleEndian.Uint32(b[0:]), helloMagic)
	}
	if b[4] != frameVersion {
		return 0, 0, fmt.Errorf("netsim: hello version %d != %d", b[4], frameVersion)
	}
	src := int(int32(binary.LittleEndian.Uint32(b[5:])))
	gen := binary.LittleEndian.Uint32(b[9:])
	if src < 0 {
		return 0, 0, fmt.Errorf("netsim: hello from negative node %d", src)
	}
	if gen == 0 {
		return 0, 0, fmt.Errorf("netsim: hello with generation 0 (generations start at 1)")
	}
	return src, gen, nil
}

// appendFrameHead builds everything of msg's frame except the gradient
// payload into dst[:0] — the u32 length prefix, the fixed v2 header, the
// gradient name and, for a batched acknowledgement, the batch — and stamps
// the frame checksum over the head and then the payload, so the payload bytes
// are read at most once (not at all when the message carries their CRC) and
// never copied. The caller transmits the head followed by the returned
// payload (nil for a batched ack).
func appendFrameHead(dst []byte, msg Message, gen uint32) (head, payload []byte) {
	var h [4 + frameHdrLen]byte
	h[8] = frameVersion
	binary.LittleEndian.PutUint32(h[9:], gen)
	binary.LittleEndian.PutUint32(h[13:], uint32(int32(msg.From)))
	binary.LittleEndian.PutUint32(h[17:], uint32(int32(msg.To)))
	binary.LittleEndian.PutUint64(h[21:], uint64(int64(msg.Step)))
	binary.LittleEndian.PutUint32(h[29:], msg.Sum)
	binary.LittleEndian.PutUint16(h[33:], uint16(msg.Attempt))
	if msg.Ack {
		h[35] |= 1
	}
	if msg.Heartbeat {
		h[35] |= 2
	}
	if len(msg.AckBatch) > 0 {
		h[35] |= 4
	}
	binary.LittleEndian.PutUint16(h[36:], uint16(len(msg.Gradient)))
	head = append(dst[:0], h[:]...)
	head = append(head, msg.Gradient...)
	if len(msg.AckBatch) > 0 {
		head = appendAckBatch(head, msg.AckBatch)
	} else {
		payload = msg.Payload
	}
	binary.LittleEndian.PutUint32(head[0:], uint32(len(head)-4+len(payload)))
	fsum, _, _ := frameSum(head[8:], payload, msg.crc, msg.crcOK)
	binary.LittleEndian.PutUint32(head[4:], fsum)
	return head, payload
}

// appendAckBatch serializes batched-ack entries into the frame payload
// region: u16 count, then per entry u64 step | u16 attempt | u16 gradLen |
// grad.
func appendAckBatch(dst []byte, refs []AckRef) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(refs)))
	for _, ref := range refs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ref.Step)))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(ref.Attempt))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ref.Gradient)))
		dst = append(dst, ref.Gradient...)
	}
	return dst
}

// errAckBatchCount rejects a batch whose count claims more than its bytes hold.
var errAckBatchCount = errors.New("netsim: ack batch claims more entries than its bytes hold")

// ackRefSlab is how many refs a fresh slab of a stream's batched-ack refs holds.
const ackRefSlab = 128

// decodeAckBatch parses a batched-ack payload, rejecting non-canonical
// encodings (zero entries, truncation, trailing bytes) so accepted batch
// frames round-trip exactly. Gradient names go through names; the refs are
// carved from *slab (a fresh one when it runs short) and never handed out
// twice. The count is checked against the bytes left — an entry takes at
// least 12 — before any is reserved: a corrupt count claims up to 65,535.
func decodeAckBatch(b []byte, names *nameTable, slab *[]AckRef) ([]AckRef, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("netsim: ack batch truncated: %d bytes", len(b))
	}
	count := int(binary.LittleEndian.Uint16(b[0:]))
	if count == 0 {
		return nil, fmt.Errorf("netsim: ack batch with zero entries")
	}
	if count > (len(b)-2)/12 {
		return nil, errAckBatchCount
	}
	if len(*slab) < count {
		*slab = make([]AckRef, max(count, ackRefSlab))
	}
	refs := (*slab)[:0:count]
	off := 2
	for i := 0; i < count; i++ {
		if off+12 > len(b) {
			return nil, fmt.Errorf("netsim: ack batch entry %d/%d truncated at offset %d", i, count, off)
		}
		step := int(int64(binary.LittleEndian.Uint64(b[off:])))
		attempt := int(binary.LittleEndian.Uint16(b[off+8:]))
		gradLen := int(binary.LittleEndian.Uint16(b[off+10:]))
		if off+12+gradLen > len(b) {
			return nil, fmt.Errorf("netsim: ack batch entry %d/%d gradient length %d exceeds payload", i, count, gradLen)
		}
		refs = append(refs, AckRef{Gradient: names.intern(b[off+12 : off+12+gradLen]), Step: step, Attempt: attempt})
		off += 12 + gradLen
	}
	if off != len(b) {
		return nil, fmt.Errorf("netsim: ack batch with %d trailing bytes", len(b)-off)
	}
	*slab = (*slab)[count:]
	return refs, nil
}

// nameTable interns gradient names for every read loop of one transport, so
// a name is allocated once per transport rather than once per stream.
type nameTable struct {
	mu sync.RWMutex
	m  map[string]string
}

// intern returns b as a string, allocating only the first time the table
// sees the name.
func (nt *nameTable) intern(b []byte) string {
	nt.mu.RLock()
	s, ok := nt.m[string(b)]
	nt.mu.RUnlock()
	if !ok {
		nt.mu.Lock()
		if s, ok = nt.m[string(b)]; !ok {
			s = string(b)
			nt.m[s] = s
		}
		nt.mu.Unlock()
	}
	return s
}

// frameError is a frame rejected by validation (as opposed to an I/O error
// on the stream). framed records whether the whole claimed body was
// consumed, i.e. whether the stream still stands at a frame boundary.
type frameError struct {
	framed bool
	err    error
}

func (e *frameError) Error() string { return e.err.Error() }
func (e *frameError) Unwrap() error { return e.err }

// frameReader decodes v2 frames off one accepted stream without copying
// payload bytes: the length prefix, fixed header, gradient name and any
// batched ack land in a scratch buffer reused from frame to frame, and a
// gradient payload is read straight into an arena buffer that holds payload
// bytes only (so a power-of-two payload stays in its own size class) and
// that the returned Message owns through its Lease. Ack, heartbeat and
// ack-batch frames lease nothing; a batch's refs are carved from the stream's
// slab.
type frameReader struct {
	r       io.Reader
	maxLen  int        // MaxFrameLen: cap on the claimed length, checked before any read
	scratch []byte     // prefix + header + name (+ ack batch) of the current frame
	names   *nameTable // the transport's; a reader without one makes its own
	refs    []AckRef   // slab batched acks' refs are carved from
}

// next reads and validates one frame, returning the message and the session
// generation it was encoded under. A *frameError reports a frame rejected
// by validation — truncated or inconsistent frames fail loudly instead of
// decoding garbage; any other error is the stream's own. On every error
// path the payload buffer has already gone back to the arena.
func (fr *frameReader) next() (Message, uint32, error) {
	const fixed = 4 + frameHdrLen
	if cap(fr.scratch) < fixed {
		fr.scratch = make([]byte, fixed, 256)
	}
	if fr.names == nil {
		fr.names = &nameTable{m: map[string]string{}}
	}
	// One read normally brings the prefix and the fixed header together (the
	// sender writes them in one piece), but the prefix alone is enough to
	// judge the claimed length — BEFORE waiting on, or reserving anything
	// for, the body: a corrupt prefix may claim gigabytes.
	b := fr.scratch[:fixed]
	n, err := io.ReadAtLeast(fr.r, b, 4)
	if err != nil {
		return Message{}, 0, err
	}
	frameLen := int(binary.LittleEndian.Uint32(b[0:]))
	if frameLen < frameHdrLen || frameLen > fr.maxLen {
		return Message{}, 0, &frameError{err: fmt.Errorf("netsim: frame length %d outside [%d, %d]", frameLen, frameHdrLen, fr.maxLen)}
	}
	if _, err := io.ReadFull(fr.r, b[n:]); err != nil {
		return Message{}, 0, err
	}
	rest := frameLen - frameHdrLen
	gradLen := int(binary.LittleEndian.Uint16(b[36:]))
	if gradLen > rest {
		// Consume the body so the stream stays at a frame boundary.
		if _, err := io.CopyN(io.Discard, fr.r, int64(rest)); err != nil {
			return Message{}, 0, err
		}
		return Message{}, 0, &frameError{framed: true,
			err: fmt.Errorf("netsim: frame gradient length %d exceeds frame body %d", gradLen, rest)}
	}
	// The flags are not yet checksum-verified; a flipped batch bit only
	// misdirects where the bytes land before the checksum rejects them.
	tail := gradLen
	if b[35]&4 != 0 {
		tail = rest
	}
	if cap(b) < fixed+tail {
		b = append(b, make([]byte, tail)...)
		fr.scratch = b
	}
	b = b[:fixed+tail]
	if _, err := io.ReadFull(fr.r, b[fixed:]); err != nil {
		return Message{}, 0, err
	}
	var lease kernels.Lease
	var payload []byte
	if n := rest - tail; n > 0 {
		payload = lease.Bytes(n)
		if _, err := io.ReadFull(fr.r, payload); err != nil {
			lease.Release()
			return Message{}, 0, err
		}
	}
	// Frame checksum first: it covers every byte after itself, so any wire
	// bit flip — header fields included — is rejected before field decoding.
	// The same pass yields the payload CRC the live plane compares with sum.
	fsum := binary.LittleEndian.Uint32(b[4:])
	got, pcrc, split := frameSum(b[8:], payload, 0, false)
	if fsum != got {
		lease.Release()
		return Message{}, 0, &frameError{framed: true, err: fmt.Errorf("netsim: frame checksum %08x != computed %08x", fsum, got)}
	}
	msg, gen, err := decodeFrameHead(b, gradLen, fr.names, &fr.refs)
	if err != nil {
		lease.Release()
		return Message{}, 0, &frameError{framed: true, err: err}
	}
	msg.Payload, msg.Lease = payload, lease
	if split {
		msg.SetPayloadCRC(pcrc)
	}
	return msg, gen, nil
}

// decodeFrameHead decodes a checksum-verified frame head — length prefix,
// fixed header, gradLen bytes of gradient name and, under the batch flag,
// the batched acknowledgement — into a Message without its payload, plus
// the session generation the frame was encoded under. Names go through names,
// and a batch's refs are carved from *slab.
func decodeFrameHead(b []byte, gradLen int, names *nameTable, slab *[]AckRef) (Message, uint32, error) {
	const fixed = 4 + frameHdrLen
	if len(b) < fixed+gradLen {
		return Message{}, 0, fmt.Errorf("netsim: truncated frame head: %d bytes < %d", len(b), fixed+gradLen)
	}
	if b[8] != frameVersion {
		return Message{}, 0, fmt.Errorf("netsim: frame version %d != %d", b[8], frameVersion)
	}
	flags := b[35]
	if flags&^7 != 0 {
		return Message{}, 0, fmt.Errorf("netsim: frame with unknown flags 0x%02x", flags)
	}
	msg := Message{
		From:      int(int32(binary.LittleEndian.Uint32(b[13:]))),
		To:        int(int32(binary.LittleEndian.Uint32(b[17:]))),
		Gradient:  names.intern(b[fixed : fixed+gradLen]),
		Step:      int(int64(binary.LittleEndian.Uint64(b[21:]))),
		Attempt:   int(binary.LittleEndian.Uint16(b[33:])),
		Ack:       flags&1 != 0,
		Heartbeat: flags&2 != 0,
		Sum:       binary.LittleEndian.Uint32(b[29:]),
	}
	if flags&4 != 0 {
		refs, err := decodeAckBatch(b[fixed+gradLen:], names, slab)
		if err != nil {
			return Message{}, 0, err
		}
		msg.AckBatch = refs
	}
	return msg, binary.LittleEndian.Uint32(b[9:]), nil
}

// Send implements Transport. A write failure (stalled peer, mid-stream cut,
// half-open receiver) drops the connection and redials with a fresh session
// generation under full-jitter backoff, retransmitting the whole frame; the
// receiver's generation admission guarantees the retransmission starts from
// a clean frame boundary. When the redial budget is exhausted Send returns
// a typed *ConnError (which still unwraps to a net.Error timeout when the
// final failure was a stall). A message the frame format cannot carry is
// rejected up front with a *FrameLimitError, before any byte is written.
//
// The payload is transmitted straight from msg.Payload (a vectored write of
// frame head + payload); it is only read, never modified, and must stay
// unchanged until Send returns.
func (t *TCPTransport) Send(msg Message) error {
	select {
	case <-t.done:
		return fmt.Errorf("netsim: tcp transport closed")
	default:
	}
	if msg.To < 0 || msg.To >= len(t.listeners) {
		return fmt.Errorf("netsim: tcp send to invalid node %d", msg.To)
	}
	if err := checkSendable(msg, t.opts.MaxFrameLen); err != nil {
		return err
	}
	var lastErr error
	var lastGen uint32
	redials := 0
	for attempt := 0; attempt <= t.opts.RedialAttempts; attempt++ {
		if attempt > 0 {
			redials++
			t.count(&t.stats.Redials, MetricTCPRedials,
				"fresh-generation redial cycles after a send failure")
			timer := time.NewTimer(t.redialBackoff(attempt - 1))
			select {
			case <-t.done:
				timer.Stop()
				return fmt.Errorf("netsim: tcp transport closed")
			case <-timer.C:
			}
		}
		tc, err := t.connTo(msg.From, msg.To)
		if err != nil {
			select {
			case <-t.done:
				return fmt.Errorf("netsim: tcp transport closed")
			default:
			}
			lastErr = err
			continue
		}
		lastGen = tc.gen
		if err := t.writeFrame(tc, msg); err == nil {
			return nil
		} else {
			// The stream may hold a partial frame now: drop the connection
			// so the peer resyncs on the next generation's handshake.
			t.dropConn(msg.From, msg.To, tc)
			lastErr = err
		}
	}
	var nerr net.Error
	return &ConnError{From: msg.From, To: msg.To, Gen: lastGen, Redials: redials,
		Timeout: isNetTimeout(lastErr, &nerr), Err: lastErr}
}

// redialBackoff draws the full-jitter wait before 0-based redial cycle i:
// uniform in (0, d] where d is the capped exponential, hashed from the
// seeded splitmix64 stream.
func (t *TCPTransport) redialBackoff(i int) time.Duration {
	d := redialBaseBackoff
	for k := 0; k < i && d < redialMaxBackoff; k++ {
		d *= 2
	}
	d = min(d, redialMaxBackoff)
	h := splitmix64(redialSeed ^ t.redialCtr.Add(1)*0x9e3779b97f4a7c15)
	return 1 + time.Duration(h%uint64(d))
}

// writeFrame transmits one frame under the connection's write lock and
// deadline: the frame head is built in the connection's reused buffer and
// goes out with the caller's payload in one vectored write (a single writev
// on a TCP socket; a wire-chaos wrapper sees the same bytes as two writes).
func (t *TCPTransport) writeFrame(tc *tcpConn, msg Message) error {
	tc.wmu.Lock()
	defer tc.wmu.Unlock()
	var payload []byte
	tc.head, payload = appendFrameHead(tc.head, msg, tc.gen)
	tc.vec = [2][]byte{tc.head, payload}
	tc.bufs = tc.vec[:]
	if len(payload) == 0 {
		tc.bufs = tc.vec[:1]
	}
	if d := t.opts.WriteTimeout; d > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(d)) //hipress:wallclock socket deadline arithmetic
	}
	// WriteTo clears each entry of vec as it is written out, so a completed
	// write leaves nothing pinning the caller's payload.
	if _, err := tc.bufs.WriteTo(tc.c); err != nil {
		var nerr net.Error
		if isNetTimeout(err, &nerr) {
			return fmt.Errorf("netsim: tcp write %d→%d timed out (peer stalled): %w", msg.From, msg.To, nerr)
		}
		return fmt.Errorf("netsim: tcp write %d→%d: %w", msg.From, msg.To, err)
	}
	return nil
}

// isNetTimeout reports whether err is (or wraps) a net.Error timeout,
// storing the net.Error into *out.
func isNetTimeout(err error, out *net.Error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		*out = ne
		return true
	}
	return false
}

// connTo returns (dialing and handshaking if needed) the connection for a
// sender/receiver pair. Each dial advances the directed link's session
// generation and opens with the HELLO carrying it.
func (t *TCPTransport) connTo(from, to int) (*tcpConn, error) {
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return nil, fmt.Errorf("netsim: tcp transport closed")
	default:
	}
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	start := time.Now() //hipress:wallclock handshake-latency histogram
	t.genCtr[key]++
	gen := t.genCtr[key]
	c, err := net.DialTimeout("tcp", t.listeners[to].Addr().String(), dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netsim: tcp dial %d→%d: %w", from, to, err)
	}
	t.count(&t.stats.Dials, MetricTCPDials, "connections dialed (including redials)")
	c = t.chaos.wrap(c, Link{Src: from, Dst: to}, gen)
	if d := t.opts.WriteTimeout; d > 0 {
		c.SetWriteDeadline(time.Now().Add(d)) //hipress:wallclock socket deadline arithmetic
	}
	if _, err := c.Write(encodeHello(from, gen)); err != nil {
		c.Close()
		return nil, fmt.Errorf("netsim: tcp hello %d→%d (gen %d): %w", from, to, gen, err)
	}
	t.opts.Metrics.Histogram(MetricTCPHandshakeSeconds,
		"dial + HELLO handshake latency (seconds)", telemetry.LatencyBuckets).
		Observe(time.Since(start).Seconds()) //hipress:wallclock handshake-latency histogram
	tc := &tcpConn{c: c, gen: gen}
	t.conns[key] = tc
	return tc, nil
}

// dropConn removes a failed connection from the pool (if it is still the
// registered one) and closes it.
func (t *TCPTransport) dropConn(from, to int, tc *tcpConn) {
	key := [2]int{from, to}
	t.mu.Lock()
	if t.conns[key] == tc {
		delete(t.conns, key)
	}
	t.mu.Unlock()
	tc.c.Close()
}

// Close implements Transport: listeners shut, dialed connections get a
// graceful write-side shutdown (FIN) so frames already on the wire drain
// into the inboxes, then every remaining connection — including half-open
// externally-dialed ones — is force-closed and all loops are joined, so no
// goroutine outlives Close. Idempotent and safe to race with in-flight
// Sends.
func (t *TCPTransport) Close() {
	t.once.Do(func() {
		close(t.done)
		for _, l := range t.listeners {
			if l != nil {
				l.Close()
			}
		}
		t.mu.Lock()
		dialed := t.conns
		t.conns = map[[2]int]*tcpConn{}
		// No connection is accepted once done is closed: the last read loop to
		// leave accepted closes drained.
		t.drained = make(chan struct{})
		if len(t.accepted) == 0 {
			close(t.drained)
		}
		t.mu.Unlock()
		// Graceful drain: FIN the write side so the peers' read loops see
		// EOF after consuming everything already written.
		for _, tc := range dialed {
			if cw, ok := tc.c.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			} else {
				tc.c.Close()
			}
		}
		select {
		case <-t.drained:
		case <-time.After(closeDrainTimeout):
		}
		// Force-close stragglers (half-open external peers that never FIN).
		t.mu.Lock()
		for c := range t.accepted {
			c.Close()
		}
		t.mu.Unlock()
		for _, tc := range dialed {
			tc.c.Close()
		}
		t.wg.Wait()
	})
}
