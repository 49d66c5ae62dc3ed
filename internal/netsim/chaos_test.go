package netsim

import (
	"fmt"
	"testing"
	"time"
)

// runChaosScript pushes a fixed single-threaded message script through a
// freshly wrapped chaos transport and returns the delivered sequence plus
// the fault stats. No delay/reorder faults may be configured by callers of
// this helper — synchronous delivery keeps the received order deterministic.
func runChaosScript(t *testing.T, cfg *ChaosConfig, n, msgs int) ([]Message, ChaosStats) {
	t.Helper()
	inner := NewChanTransport(n, n*msgs*2+8)
	ct := WrapChaos(inner, cfg)
	defer ct.Close()
	for step := 0; step < msgs; step++ {
		for src := 0; src < n; src++ {
			dst := (src + 1 + step%(n-1)) % n
			msg := Message{From: src, To: dst, Gradient: fmt.Sprintf("g%d", src%3),
				Step: step, Payload: []byte{byte(src), byte(step), 0x42}}
			if err := ct.Send(msg); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	var out []Message
	for node := 0; node < n; node++ {
		for {
			select {
			case m := <-inner.ch[node]:
				out = append(out, m)
			default:
				goto next
			}
		}
	next:
	}
	return out, ct.Stats()
}

// TestChaosDeterminism: the same seed and script must produce the identical
// fault schedule — same delivered messages, same corrupted bytes, same
// counters — across independent transports.
func TestChaosDeterminism(t *testing.T) {
	cfg := &ChaosConfig{
		Seed:    7,
		Default: LinkFaults{Drop: 0.2, Dup: 0.15, Corrupt: 0.1},
		Links: map[Link]LinkFaults{
			{Src: 0, Dst: 1}: {Drop: 0.6, Dup: 0.3},
		},
	}
	a, sa := runChaosScript(t, cfg, 4, 40)
	b, sb := runChaosScript(t, cfg, 4, 40)
	if sa != sb {
		t.Fatalf("stats diverged:\n%+v\n%+v", sa, sb)
	}
	if sa.Dropped == 0 || sa.Duplicated == 0 || sa.Corrupted == 0 {
		t.Fatalf("expected all fault kinds to fire: %+v", sa)
	}
	if len(a) != len(b) {
		t.Fatalf("delivered counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Step != b[i].Step ||
			a[i].Gradient != b[i].Gradient || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different schedule.
	cfg2 := *cfg
	cfg2.Seed = 8
	c, sc := runChaosScript(t, &cfg2, 4, 40)
	if sc == sa && len(c) == len(a) {
		same := true
		for i := range a {
			if string(a[i].Payload) != string(c[i].Payload) || a[i].Step != c[i].Step {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

// TestChaosAttemptRollsFresh: a retransmission (higher Attempt) must roll a
// fresh outcome, so a lossy-but-not-down link eventually delivers.
func TestChaosAttemptRollsFresh(t *testing.T) {
	inner := NewChanTransport(2, 64)
	ct := WrapChaos(inner, &ChaosConfig{Seed: 3, Default: LinkFaults{Drop: 0.7}})
	defer ct.Close()
	delivered := false
	for attempt := 0; attempt < 64 && !delivered; attempt++ {
		msg := Message{From: 0, To: 1, Gradient: "g", Step: 5, Attempt: attempt, Payload: []byte{1}}
		if err := ct.Send(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case <-inner.ch[1]:
			delivered = true
		default:
		}
	}
	if !delivered {
		t.Fatal("64 attempts over a 70 percent drop link never delivered; attempt not mixed into roll?")
	}
}

// TestChaosBlackouts: Down links and NodeDown swallow everything while the
// sender still sees success (the realistic failure surface).
func TestChaosBlackouts(t *testing.T) {
	inner := NewChanTransport(3, 16)
	ct := WrapChaos(inner, &ChaosConfig{
		Seed:     1,
		Links:    map[Link]LinkFaults{{Src: 0, Dst: 1}: {Down: true}},
		NodeDown: map[int]bool{2: true},
	})
	defer ct.Close()
	for _, m := range []Message{
		{From: 0, To: 1, Gradient: "a", Payload: []byte{1}}, // link down
		{From: 1, To: 2, Gradient: "b", Payload: []byte{2}}, // dst node down
		{From: 2, To: 0, Gradient: "c", Payload: []byte{3}}, // src node down
		{From: 1, To: 0, Gradient: "d", Payload: []byte{4}}, // healthy
	} {
		if err := ct.Send(m); err != nil {
			t.Fatalf("send %+v: %v", m, err)
		}
	}
	st := ct.Stats()
	if st.Blackholed != 3 || st.Delivered != 1 {
		t.Fatalf("blackhole accounting wrong: %+v", st)
	}
	m, ok := ct.Recv(0)
	if !ok || m.Gradient != "d" {
		t.Fatalf("healthy message lost: %+v ok=%v", m, ok)
	}
}

// TestChaosDelayDelivers: delayed messages still arrive (after Close waits
// for them or before), and the delay counter fires.
func TestChaosDelayDelivers(t *testing.T) {
	inner := NewChanTransport(2, 16)
	ct := WrapChaos(inner, &ChaosConfig{Seed: 9,
		Default: LinkFaults{Delay: 1.0, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}})
	for i := 0; i < 4; i++ {
		if err := ct.Send(Message{From: 0, To: 1, Gradient: "g", Step: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 4 {
		select {
		case <-inner.ch[1]:
			got++
		case <-deadline:
			t.Fatalf("only %d/4 delayed messages arrived", got)
		}
	}
	st := ct.Stats()
	if st.Delayed != 4 {
		t.Fatalf("Delayed = %d, want 4", st.Delayed)
	}
	ct.Close()
	ct.Close() // idempotent
}

// TestChaosTransparent: a nil config injects nothing.
func TestChaosTransparent(t *testing.T) {
	inner := NewChanTransport(2, 8)
	ct := WrapChaos(inner, nil)
	defer ct.Close()
	for i := 0; i < 5; i++ {
		if err := ct.Send(Message{From: 0, To: 1, Step: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, ok := ct.Recv(1)
		if !ok || m.Step != i {
			t.Fatalf("transparent wrapper reordered/lost: %+v ok=%v", m, ok)
		}
	}
	st := ct.Stats()
	if st.Sent != 5 || st.Delivered != 5 || st.Dropped+st.Corrupted+st.Duplicated+st.Blackholed != 0 {
		t.Fatalf("transparent stats wrong: %+v", st)
	}
}

// TestChaosBandwidthSerializes: a bandwidth-capped link delays payloads by
// their serialization time, queues back-to-back sends FIFO, and still
// delivers everything; an uncapped link is unaffected.
func TestChaosBandwidthSerializes(t *testing.T) {
	inner := NewChanTransport(2, 16)
	ct := WrapChaos(inner, &ChaosConfig{
		Links: map[Link]LinkFaults{
			{Src: 0, Dst: 1}: {Bandwidth: 1 << 20}, // 1 MiB/s
		},
	})
	defer ct.Close()

	// Two 100 ms payloads back to back: the second queues behind the first,
	// so total drain time is ~200 ms.
	payload := make([]byte, 100<<10) // 100 KiB at 1 MiB/s ≈ 98 ms
	start := time.Now()
	for step := 0; step < 2; step++ {
		if err := ct.Send(Message{From: 0, To: 1, Gradient: "g", Step: step, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < 2; got++ {
		if _, ok := ct.Recv(1); !ok {
			t.Fatal("capped link lost a message")
		}
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("two serialized 98 ms payloads drained in %v — no queueing", elapsed)
	}
	st := ct.Stats()
	if st.Delayed != 2 {
		t.Fatalf("Delayed = %d, want 2 (both payloads serialized)", st.Delayed)
	}

	// The reverse (uncapped) direction delivers immediately.
	start = time.Now()
	if err := ct.Send(Message{From: 1, To: 0, Gradient: "g", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ct.Recv(0); !ok {
		t.Fatal("uncapped link lost a message")
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Fatalf("uncapped link took %v", e)
	}
}
