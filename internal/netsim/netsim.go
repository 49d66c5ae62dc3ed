// Package netsim models the paper's interconnects (100/25 Gbps EC2, 56/10
// Gbps local InfiniBand) and provides the live in-memory transport used by
// the real-execution training plane.
//
// The timing side is a classic α–β model: sending m bytes over a link takes
// Latency + m/Bandwidth seconds, with full-duplex links (independent uplink
// and downlink capacity), matching how the paper counts communication steps
// (§2.2: "each worker simultaneously sends a partition to its successor and
// receives another partition from its predecessor, to best utilize its
// bi-directional network bandwidth").
package netsim

import (
	"fmt"
	"sync"

	"hipress/internal/kernels"
)

// Gbps converts a link rate in gigabits/second to effective bytes/second.
// The factor 0.92 accounts for protocol framing and the gap between line
// rate and achievable goodput on a tuned RDMA fabric.
func Gbps(g float64) float64 { return g * 1e9 / 8 * 0.92 }

// Fabric describes a homogeneous cluster interconnect.
type Fabric struct {
	Name string
	// Bandwidth is per-direction effective bytes/second of one node's NIC.
	Bandwidth float64
	// Latency is the one-way small-message latency in seconds.
	Latency float64
}

// SendTime returns T_send(m): the modeled time to move m bytes across one
// link of the fabric (paper Table 2's T_send).
func (f *Fabric) SendTime(m int64) float64 {
	return f.Latency + float64(m)/f.Bandwidth
}

// EC2100G is the paper's primary fabric: 100 Gbps EC2 networking with EFA.
func EC2100G() *Fabric { return &Fabric{Name: "ec2-100g", Bandwidth: Gbps(100), Latency: 20e-6} }

// EC225G is the reduced-bandwidth EC2 configuration of Fig. 12a.
func EC225G() *Fabric { return &Fabric{Name: "ec2-25g", Bandwidth: Gbps(25), Latency: 25e-6} }

// IB56G is the local cluster's 56 Gbps InfiniBand fabric.
func IB56G() *Fabric { return &Fabric{Name: "ib-56g", Bandwidth: Gbps(56), Latency: 5e-6} }

// Eth10G is the local cluster's reduced 10 Gbps configuration of Fig. 12a.
func Eth10G() *Fabric { return &Fabric{Name: "eth-10g", Bandwidth: Gbps(10), Latency: 30e-6} }

// ByName resolves a preset fabric name.
func ByName(name string) (*Fabric, error) {
	switch name {
	case "ec2-100g":
		return EC2100G(), nil
	case "ec2-25g":
		return EC225G(), nil
	case "ib-56g":
		return IB56G(), nil
	case "eth-10g":
		return Eth10G(), nil
	default:
		return nil, fmt.Errorf("netsim: unknown fabric %q", name)
	}
}

// --- live transport -----------------------------------------------------------

// Message is one unit of live communication: a payload tagged with enough
// metadata for the receiver's task manager to route it.
type Message struct {
	From, To int
	// Gradient names the gradient (or gradient partition) this payload
	// belongs to, e.g. "layer3.weight/p2".
	Gradient string
	// Step disambiguates multiple transfers of the same gradient within one
	// synchronization round (e.g. ring hop number).
	Step int
	// Attempt is the sender's retry counter for this logical transfer.
	// Retransmissions of the same (Gradient, Step) carry increasing Attempt
	// values so fault injectors can roll fresh outcomes per attempt and
	// receivers can deduplicate idempotently.
	Attempt int
	// Ack marks a zero-payload acknowledgement for the transfer identified by
	// (Gradient, Step, Attempt) flowing receiver→sender.
	Ack bool
	// Heartbeat marks a zero-payload liveness probe (or, with Ack set, its
	// echo) from the adaptive health plane: Step carries the probe's send
	// timestamp so the echo yields an RTT sample, and receivers handle it
	// outside the dedup/recv machinery.
	Heartbeat bool
	// Sum is the CRC-32 (IEEE) checksum of Payload as the sender staged it:
	// the live plane sets it on every data message and checks it on every
	// receive (a mismatch is dropped unacknowledged, so the sender retransmits).
	Sum uint32
	// Payload is the (possibly compressed) bytes on the wire.
	Payload []byte
	// AckBatch, when non-empty, turns the message into a coalesced
	// acknowledgement: one frame settling several transfers on the same
	// directed link, each identified by its own (Gradient, Step) key, which
	// leaves Gradient/Step/Attempt on the message free (for a sequence
	// number). On the TCP transport it travels under a dedicated frame flag.
	AckBatch []AckRef
	// Bulk, when it holds two or more entries, turns the message into a bulk
	// frame: several data transfers on one directed link, each entry standing
	// for a classic data message. Payload and Sum are then unused, and
	// Gradient and Step name the first entry (fault rolls key on them). On
	// the TCP transport it travels under a dedicated frame flag.
	Bulk []BulkEntry
	// Lease, when it holds a buffer, owns the payload bytes (a bulk frame's
	// all): the TCP transport reads them off the socket straight into an
	// arena buffer that travels with the delivered message. The receiver
	// splices it into a longer-lived lease (Lease.Adopt) to keep them valid,
	// or calls Lease.Release once done; doing neither leaves it to the GC.
	// Senders leave it zero. Settle it through one copy of the message only.
	Lease kernels.Lease

	// crc, when crcOK, is the CRC-32 of Payload as it sits in memory now
	// (SetPayloadCRC/PayloadCRC); it never travels. ChaosTransport clears it
	// on the copy it corrupts, ChanTransport.Send on every message.
	crc   uint32
	crcOK bool
}

// BulkEntry is one transfer inside a bulk frame: the fields of a classic data
// message it stands for.
type BulkEntry struct {
	Gradient string
	Step     int
	Sum      uint32
	Payload  []byte
	// crc, when crcOK, is the CRC-32 of Payload as it sits in memory now,
	// read by the sender's frame builder only: copies of a message share
	// entries, so nothing clears it in place, and receivers sum each entry.
	crc   uint32
	crcOK bool
}

// Entry returns m's transfer as a bulk entry, its payload-CRC cache included.
func (m *Message) Entry() BulkEntry {
	return BulkEntry{Gradient: m.Gradient, Step: m.Step, Sum: m.Sum, Payload: m.Payload, crc: m.crc, crcOK: m.crcOK}
}

// PayloadLen is how many payload bytes m carries, its bulk entries' included.
func (m *Message) PayloadLen() int {
	n := len(m.Payload)
	for i := range m.Bulk {
		n += len(m.Bulk[i].Payload)
	}
	return n
}

// AckRef identifies one transfer inside a batched acknowledgement, mirroring
// the (Gradient, Step, Attempt) triple a standalone ack frame carries.
type AckRef struct {
	Gradient string
	Step     int
	Attempt  int
}

// Transport is the live-plane communication substrate: reliable, ordered
// per-sender delivery, addressed by dense node ids [0, N).
type Transport interface {
	// Send delivers msg to msg.To. It blocks only if the destination's
	// inbox is full (providing natural backpressure) and returns an error
	// if the transport is closed or the address invalid.
	Send(msg Message) error
	// Recv returns the next message addressed to node. It blocks until a
	// message arrives or the transport closes, in which case ok is false.
	Recv(node int) (msg Message, ok bool)
	// Close shuts the transport down and unblocks all receivers.
	Close()
}

// inboxes is the receive side both live transports share: one buffered
// channel per node, and done, which the transport's Close closes.
type inboxes struct {
	ch   []chan Message
	done chan struct{}
}

func newInboxes(n, capacity int) inboxes {
	ib := inboxes{ch: make([]chan Message, n), done: make(chan struct{})}
	for i := range ib.ch {
		ib.ch[i] = make(chan Message, capacity)
	}
	return ib
}

// Nodes returns the number of endpoints.
func (ib *inboxes) Nodes() int { return len(ib.ch) }

// Recv implements Transport.
func (ib *inboxes) Recv(node int) (Message, bool) {
	if node < 0 || node >= len(ib.ch) {
		return Message{}, false
	}
	select {
	case <-ib.done:
		// Drain any messages that raced with Close so shutdown is clean.
		select {
		case m := <-ib.ch[node]:
			return m, true
		default:
			return Message{}, false
		}
	case m := <-ib.ch[node]:
		return m, true
	}
}

// ChanTransport is an in-memory Transport built on buffered channels: the
// live-plane stand-in for NCCL/MPI point-to-point primitives. One channel
// per destination preserves per-destination FIFO order from each sender's
// perspective (sufficient for CaSync, which tags messages with step ids).
type ChanTransport struct {
	inboxes
	once sync.Once
}

// NewChanTransport creates a transport connecting n nodes with the given
// per-node inbox capacity.
func NewChanTransport(n, capacity int) *ChanTransport {
	return &ChanTransport{inboxes: newInboxes(n, capacity)}
}

// Send implements Transport.
func (t *ChanTransport) Send(msg Message) error {
	if msg.To < 0 || msg.To >= len(t.ch) {
		return fmt.Errorf("netsim: send to invalid node %d (have %d)", msg.To, len(t.ch))
	}
	msg.crcOK = false // nothing re-reads the bytes in between: the receiver's pass is the only check
	// Check for shutdown before attempting the send: when both the done
	// channel and the inbox are ready, select would pick randomly and could
	// accept a message after Close.
	select {
	case <-t.done:
		return fmt.Errorf("netsim: transport closed")
	default:
	}
	select {
	case <-t.done:
		return fmt.Errorf("netsim: transport closed")
	case t.ch[msg.To] <- msg:
		return nil
	}
}

// Close implements Transport. It is safe to call multiple times.
func (t *ChanTransport) Close() {
	t.once.Do(func() { close(t.done) })
}
