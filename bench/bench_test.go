package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {75, 40}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestTailRule pins the reporting rule for slow cases: the highest rung of
// the ladder with at least ten samples beyond it, the median below forty.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(i)
		}
		pct, val := tail(v)
		if pct != c.want {
			t.Errorf("tail of %d samples reported at p%v, want p%v", c.n, pct, c.want)
		}
		if want := percentile(v, pct); val != want {
			t.Errorf("tail of %d samples = %v, want %v", c.n, val, want)
		}
	}
}

// TestQuartileSpread checks against Python's statistics.quantiles(v, n=4):
// for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestQuartileSpread(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"op_ms_p50", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"lower within bound", lower, steady, []float64{108, 109, 108, 107, 108}, ok},
		{"lower improved", lower, steady, []float64{50, 51, 50, 49, 50}, ok},
		{"lower beyond bound", lower, steady, []float64{112, 113, 112, 111, 112}, worse},
		{"higher within bound", higher, steady, []float64{92, 93, 92, 91, 92}, ok},
		{"higher beyond bound", higher, steady, []float64{88, 89, 88, 87, 88}, worse},
		{"higher improved", higher, steady, []float64{150, 151, 150, 149, 150}, ok},
		{"spread wider than bound", lower, steady, []float64{80, 140, 100, 160, 90}, unresolved},
		{"single runs", lower, []float64{100}, []float64{120}, worse},
	} {
		if _, _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	write := func(scale float64) string {
		rf := resultFile{Fingerprint: "test", Values: map[string]map[string][]float64{}}
		for _, w := range workloads() {
			rf.Values[w.name] = map[string][]float64{}
			for _, d := range endToEnd {
				v := 100.0
				if d.Name == "allocs_per_op" && w.name == "bert-dgc-ps-tcp" {
					v *= scale
				}
				rf.Values[w.name][d.Name] = []float64{v, v, v}
			}
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/r.json"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, more := write(1), write(1.02), write(1.2)
	var out bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, io.Discard); code != 0 {
		t.Errorf("comparison within bounds exited %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, more}, &out, io.Discard); code != 1 {
		t.Errorf("comparison with 20%% more allocations per round exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row printed:\n%s", out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// harness reports from and to the limits of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths %v, want %v", bj.Paths, want)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness's default is %d", bj.RunSeconds, defaultSeconds)
	}
	// The driver makes 4 + 22 runs per workload; with set-up, verification
	// and the two builds they must end within 3420 s.
	if runs := 4 + 22*len(bj.Workloads); float64(runs)*(float64(bj.RunSeconds)+11) > 3420-120 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds inside 3420 s", runs, bj.RunSeconds)
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(ws))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v, the harness has %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the harness has %v (must be in (0, 0.25])", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
}

// chdir moves the test into dir and back when it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// resultLine parses the last line of a run's output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestSmoke drives every workload through two operations, untraced and
// traced, and checks each run reports exactly its table's metrics, once,
// with the table's units. It keeps the harness building and running under
// go test ./... without measuring anything.
func TestSmoke(t *testing.T) {
	chdir(t, t.TempDir()) // checkpoints land under the working directory
	start := time.Now()
	for _, w := range workloads() {
		for _, tr := range []string{"0", "1"} {
			if raceEnabled && tr == "1" {
				continue
			}
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "-smoke", "--trace", tr, "--seed", "3"}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s exited %d\n%s%s", w.name, tr, code, out.String(), errOut.String())
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%t attempted=%d failed=%d", w.name, tr, r.Correct, r.Attempted, r.Failed)
			}
			table := endToEnd
			if tr == "1" {
				table = perLayer
			}
			if len(r.Metrics) != len(table) {
				t.Errorf("%s --trace %s reports %d metrics, the table has %d", w.name, tr, len(r.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s --trace %s does not report %s", w.name, tr, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s --trace %s: %s is %v", w.name, tr, d.Name, m.Value)
				}
				if tr == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
	// About 4 s alone on 2 cores; the limit leaves room for the sibling
	// packages go test ./... runs at the same time.
	if el := time.Since(start); el > 30*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want a few seconds", el)
	}
}

// TestCorruptedResultFailsRun shows the correctness gate is live: one
// flipped bit in one node's result, a loss above target, or a simulator
// result that differs between passes each make the run report
// correct=false and exit nonzero.
func TestCorruptedResultFailsRun(t *testing.T) {
	chdir(t, t.TempDir())
	for _, name := range []string{"vgg-onebit-ps-chan", "vgg-exact-ring-tcp", "train-mlp-terngrad", "sim-paper-128gpu"} {
		var out bytes.Buffer
		code := runOne(options{workload: name, seed: 3, seconds: 1, smoke: true, corrupt: true}, &out, io.Discard)
		if code == 0 {
			t.Errorf("%s: corrupted run exited 0\n%s", name, out.String())
		}
		if r := lastLine(t, out.String()); r.Correct {
			t.Errorf("%s: corrupted run reported correct=true", name)
		}
		if !strings.Contains(out.String(), "WRONG:") {
			t.Errorf("%s: no WRONG line says what was broken\n%s", name, out.String())
		}
	}
}

func TestUnknownWorkloadAndBadSeconds(t *testing.T) {
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
	if code := run([]string{"--workload", "sim-paper-128gpu", "--seconds", "61"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("--seconds 61 exited %d, want 2", code)
	}
}

// failingInst fails its third operation.
type failingInst struct{}

func (failingInst) op(i int) (int, error) {
	if i == 2 {
		return 1, os.ErrDeadlineExceeded
	}
	return 1, nil
}
func (failingInst) close() error { return nil }

// TestFailedOperationIsCounted: an operation that returns an error ends the
// phase, counts as attempted and failed, and makes the run incorrect.
func TestFailedOperationIsCounted(t *testing.T) {
	rep := &report{Correct: true, Metrics: zeros(endToEnd)}
	p, ok := rep.measure(failingInst{}, 0, 1, 1, false)
	if ok || rep.Correct || rep.Failed != 1 || rep.Attempted != 3 || p.ops != 2 {
		t.Errorf("ok=%t correct=%t failed=%d attempted=%d ops=%d, want false false 1 3 2", ok, rep.Correct, rep.Failed, rep.Attempted, p.ops)
	}
}
