package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// TestLiveChaosTelemetry drives a reliable live round over a lossy transport
// with the observability plane attached, and checks that the run is fully
// debuggable from the exports alone: the Chrome trace is valid JSON carrying
// per-primitive spans, retry instants, and the cluster-wide round span; the
// Prometheus dump carries compression byte counters, the round-latency
// histogram, retry counters, and chaos-injection counters.
func TestLiveChaosTelemetry(t *testing.T) {
	tel := telemetry.New()
	lc, err := NewLiveCluster(4, LiveConfig{
		Strategy: StrategyPS, Algo: "onebit", Parts: 2,
		Retry:        fastRetry,
		RoundTimeout: 30 * time.Second,
		Chaos:        &netsim.ChaosConfig{Seed: 42, Default: netsim.LinkFaults{Drop: 0.3}},
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(7, 4, map[string]int{"w1": 513, "w2": 64})
	_, health, err := lc.SyncRoundContext(context.Background(), grads)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if health.Retries == 0 {
		t.Fatalf("expected retries under 30%% drop, health: %s", health)
	}
	if health.Chaos == nil || health.Chaos.Dropped == 0 {
		t.Fatalf("chaos transport injected nothing: %+v", health.Chaos)
	}

	// --- span side ---
	cats := map[string]int{}
	rounds := 0
	for _, s := range tel.Tracer.Spans() {
		cats[s.Cat]++
		if s.Cat == "round" {
			rounds++
			if s.Node != telemetry.NodeCluster || s.Dur <= 0 {
				t.Fatalf("round span malformed: %+v", s)
			}
		}
	}
	for _, want := range []string{"encode", "decode", "merge", "send", "recv", "retry", "round"} {
		if cats[want] == 0 {
			t.Fatalf("no %q spans recorded; cats: %v", want, cats)
		}
	}
	if rounds != 1 {
		t.Fatalf("want 1 round span, got %d", rounds)
	}

	// The trace must be valid Chrome trace-event JSON with paired flows.
	var buf bytes.Buffer
	if err := tel.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("live trace is not valid JSON: %v", err)
	}
	starts := map[string]bool{}
	ends := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts[ev.ID] = true
		case "f":
			ends++
		}
	}
	if len(starts) == 0 || ends == 0 {
		t.Fatalf("no flow arrows in live trace (starts=%d ends=%d)", len(starts), ends)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "f" && !starts[ev.ID] {
			t.Fatalf("recv flow %s has no matching send", ev.ID)
		}
	}

	// --- metric side ---
	var prom bytes.Buffer
	if err := tel.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		MetricLiveRoundSeconds + "_count",
		MetricLiveRounds,
		MetricLiveRetries,
		MetricChaosInjected + `{kind="dropped"}`,
		`hipress_compress_encodes_total{algo="onebit",node="0"}`,
		`hipress_compress_wire_bytes_total{algo="onebit"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	// The retry counter must agree with RoundHealth.
	retries := tel.Metrics.Counter(MetricLiveRetries, "", "strategy", StrategyPS.String())
	if int64(retries.Value()) != health.Retries {
		t.Fatalf("retry metric %v != health retries %d", retries.Value(), health.Retries)
	}
}

// TestLiveTelemetryDisabledZeroAllocs pins the live plane's disabled-path
// guarantee: the per-task tracing hooks on the encode/merge/send execution
// paths do no heap allocation when no tracer is attached.
func TestLiveTelemetryDisabledZeroAllocs(t *testing.T) {
	r := &liveRound{} // trc and met both nil: telemetry disabled
	tasks := []*Task{
		{Kind: KEncode, Node: 0, Grad: "w", Part: 0, Step: 3},
		{Kind: KMerge, Node: 0, Grad: "w", Part: 1, Step: 3},
		{Kind: KSend, Node: 0, Peer: 1, Grad: "w", Part: 0, Step: 3, Bytes: 128},
		{Kind: KRecv, Node: 1, Peer: 0, Grad: "w", Part: 0, Step: 3, Bytes: 128},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		start := r.trc.Now()
		for _, task := range tasks {
			r.traceTask(task, start)
		}
		if r.trc.Enabled() {
			t.Error("nil tracer enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled live telemetry allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabled measures the cost the observability hooks add
// to the live plane's encode/merge/send paths when telemetry is off (expect
// a few ns and 0 allocs/op; run with -benchmem).
func BenchmarkTelemetryDisabled(b *testing.B) {
	r := &liveRound{}
	tasks := []*Task{
		{Kind: KEncode, Node: 0, Grad: "w", Part: 0, Step: 3},
		{Kind: KMerge, Node: 0, Grad: "w", Part: 1, Step: 3},
		{Kind: KSend, Node: 0, Peer: 1, Grad: "w", Part: 0, Step: 3, Bytes: 128},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := r.trc.Now()
		for _, task := range tasks {
			r.traceTask(task, start)
		}
	}
}
