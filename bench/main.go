// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and a per-layer attribution
// measured from outside the program. See README.md in this directory for why
// each workload exists and how the metrics interact.
//
// One measured run (what BENCHMARK.json's command starts):
//
//	go run ./bench --workload vgg-onebit-ps-chan --seed 7 --seconds 15 --trace 0
//
// measures the end-to-end metrics with tracing off; --trace 1 makes the
// shorter traced run plus the layer replays and reports the per-layer
// metrics instead. The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is nonzero when
// an operation failed or an output was wrong.
//
// Without --workload every workload runs, each in a fresh process, traced
// and untraced, -runs times; -out keeps the values for -compare:
//
//	go run ./bench -runs 5 -out a.json
//	go run ./bench -compare a.json b.json
//	go run ./bench -smoke            two operations per workload, no bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hipress/internal/kernels"
)

const (
	defaultSeed    = 20210726 // recorded default; a claimed gain must also hold on a second seed
	defaultSeconds = 15
	nodes          = 4 // every live workload runs a 4-node cluster
	warmupOps      = 5
	setupReps      = 3 // set-up is repeated and its median reported
	minSamples     = 4 // fewer latency samples than this in an untraced measured phase aborts the run
	minTraced      = 2 // the traced phase only feeds the tracing overhead and the span sums
	scratchDir     = ".bench_build"
)

// pick returns small in smoke mode and full otherwise: smoke runs keep every
// code path and shrink every count.
func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
	// corrupt flips one bit of one result before the correctness gate looks
	// at it; the tests use it to show the gate fails the run.
	corrupt bool
}

// report is what one run hands back: the contract's JSON line plus the
// human-readable notes printed above it.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	notes     []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrong records a broken correctness check: the run is reported incorrect
// and exits nonzero.
func (r *report) wrong(format string, args ...any) {
	r.Correct = false
	r.notef("WRONG: "+format, args...)
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	why  string
	run  func(o options, rep *report) error
}

func workloads() []workloadDef {
	return []workloadDef{
		{"vgg-onebit-ps-chan", "dense quantize kernels and the PS server merge do the work, the wire almost none", runSync},
		{"vgg-exact-ring-tcp", "frame build, CRC, socket writes and per-frame copies do the work, compression none; ring hops instead of PS fan-in", runSync},
		{"bert-dgc-ps-tcp", "399 mostly tiny tensors: per-message and per-call fixed cost dominates, bytes do not; sparse top-k kernels", runSync},
		{"train-mlp-terngrad", "the user-facing training loop on the default unreliable sequential send path, checkpoint stalls included", runTrain},
		{"sim-paper-128gpu", "the paper's six Fig. 7/8 panels on the timing plane: simulator wall time and bit-stable paper numbers", runSim},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, each in a fresh process)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run and layer replays, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "two operations per workload, no replays worth reading, no bounds")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with --trace 1: write the traced run's Chrome-trace JSON here as <workload>.trace.json")
	runs := fs.Int("runs", 1, "without --workload: repeat every workload this many times")
	out := fs.String("out", "", "without --workload: write every run's values to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit nonzero on a regression")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	o.trace = *trace != 0
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload == "" {
		return runAll(o, *runs, *out, stdout, stderr)
	}
	return runOne(o, stdout, stderr)
}

// runOne runs one workload in this process and prints the contract's JSON
// line last.
func runOne(o options, stdout, stderr io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || o.seconds > 60 {
		fmt.Fprintf(stderr, "bench: --seconds %v outside (0, 60]\n", o.seconds)
		return 2
	}
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS %d exceeds the %d CPUs available: timings would measure the scheduler\n", g, n)
		return 2
	}
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	rep := &report{Correct: true, Metrics: zeros(table)}
	fmt.Fprintln(stdout, fingerprint(o))
	err := w.run(o, rep)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	if err != nil {
		// No result line: the run could not be measured at all.
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		rep.Metrics.set("bench.fail_share", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	}
	printMetrics(stdout, table, rep.Metrics)
	if err := writeResultLine(stdout, table, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// fingerprint describes the machine and the run, so a number is never read
// without the box it came from.
func fingerprint(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("# workload=%s seed=%d seconds=%g trace=%t smoke=%t nproc=%d GOMAXPROCS=%d kernels.Workers=%d go=%s commit=%s",
		o.workload, o.seed, o.seconds, o.trace, o.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernels.Workers(), runtime.Version(), commit)
}

func printMetrics(w io.Writer, table []metricDef, m metrics) {
	for _, d := range table {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
}

// writeResultLine prints the one JSON object the driver reads.
func writeResultLine(w io.Writer, table []metricDef, rep *report) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(table))
	for _, d := range table {
		ms[d.Name] = mv{rep.Metrics[d.Name], d.Unit}
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, attempted, rep.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tempDir makes a fresh directory for files a workload writes (checkpoints).
// It sits under the working directory, not the system temp directory, so a
// run touches nothing outside its checkout.
func tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchDir, pattern)
}

// instance is one set-up copy of a workload's program: constructed, warmed
// up, ready for the next operation.
type instance interface {
	// op performs the i-th closed-loop call and returns how many operations
	// it covered (the sim workload times a whole pass of engine.Run calls as
	// one sample).
	op(i int) (ops int, err error)
	close() error
}

// phase is what one measured phase of the closed loop observed.
type phase struct {
	samples  []float64 // ms per op, one per call of instance.op
	ops      int
	wall     float64 // s
	cpu      float64 // s, user+system of the whole process
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

// measure drives inst in a closed loop — one caller, the next operation
// issued when the previous returns — for the given time, starting at call
// index first, and counts its operations into the report. It reports false,
// with the reason recorded as a broken check, when an operation failed or
// fewer than need calls fit in that time. In smoke mode it makes two calls.
func (rep *report) measure(inst instance, first int, seconds float64, need int, smoke bool) (phase, bool) {
	var p phase
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := first; ; i++ {
		t0 := time.Now()
		n, err := inst.op(i)
		el := time.Since(t0)
		rep.Attempted += n
		if err != nil {
			// A failed operation leaves cluster state (residuals, sockets)
			// undefined; count it and stop rather than time garbage.
			rep.Failed++
			rep.wrong("operation %d: %v", i, err)
			return p, false
		}
		p.ops += n
		p.samples = append(p.samples, el.Seconds()*1e3/float64(n))
		if smoke && len(p.samples) >= 2 {
			break
		}
		if !smoke && !time.Now().Before(deadline) {
			break
		}
	}
	p.wall = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	if !smoke && len(p.samples) < need {
		rep.wrong("only %d operations completed in %.1f s: this machine is too slow for the workload's sizes; resize them in a change of the benchmark itself, never in one that claims a gain", len(p.samples), p.wall)
		return p, false
	}
	return p, true
}

// untracedSeconds is the length of the untraced measured phase: all of
// --seconds for the end-to-end metrics, half in a traced run, whose other
// half is the traced phase.
func (o options) untracedSeconds() float64 {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

// setUp builds the workload's program setupReps times and returns the last
// copy with the median build time: construction plus warm-up operations,
// everything that precedes the first timed operation. Inputs are generated
// before and are not part of it.
func setUp[T instance](build func() (T, error), smoke bool) (T, float64, error) {
	var times []float64
	var inst, none T
	for r := 0; r < pick(smoke, setupReps, 1); r++ {
		if r > 0 {
			if err := inst.close(); err != nil {
				return none, 0, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return none, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// endToEndMetrics fills the end-to-end table from an untraced phase.
func endToEndMetrics(rep *report, p phase, setupS float64) {
	ops := float64(p.ops)
	rep.Metrics.set("setup_s", setupS)
	rep.Metrics.set("op_ms_p50", median(p.samples))
	rep.Metrics.set("ops_per_s", ops/p.wall)
	rep.Metrics.set("cpu_ms_per_op", p.cpu*1e3/ops)
	rep.Metrics.set("allocs_per_op", float64(p.mallocs)/ops)
	rep.Metrics.set("alloc_KB_per_op", float64(p.bytes)/1024/ops)
	rep.Metrics.set("peak_rss_MB", peakRSSMB())
	s := sortedCopy(p.samples)
	rep.notef("# op latency ms over %d samples: min %.4g p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g max %.4g", len(s),
		s[0], percentile(s, 10), percentile(s, 25), percentile(s, 50), percentile(s, 75), percentile(s, 90), s[len(s)-1])
}

// --- all workloads, each in a fresh process ------------------------------------

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint string `json:"fingerprint"`
	// Values[workload][metric] lists one value per run.
	Values map[string]map[string][]float64 `json:"values"`
}

// runAll re-executes this binary once per (workload, trace mode, run) so no
// workload inherits another's heap, arena or sockets.
func runAll(o options, runs int, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rf := resultFile{Values: map[string]map[string][]float64{}}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads() {
			for _, tr := range []int{0, 1} {
				args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed),
					"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(tr)}
				if o.smoke {
					args = append(args, "-smoke")
				}
				if o.traceDir != "" {
					args = append(args, "-trace-dir", o.traceDir)
				}
				outBytes, code, err := execSelf(exe, args, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
				last := lines[len(lines)-1]
				for _, l := range lines[:len(lines)-1] {
					fmt.Fprintln(stdout, l)
				}
				fmt.Fprintln(stdout)
				if code != 0 {
					fmt.Fprintf(stderr, "bench: %s --trace %d exited %d\n", w.name, tr, code)
					status = 1
				}
				if rf.Fingerprint == "" {
					rf.Fingerprint = lines[0]
				}
				if err := rf.add(w.name, last); err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					status = 1
				}
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// add parses one run's result line into the file.
func (rf *resultFile) add(workload, line string) error {
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return fmt.Errorf("no result line: %w", err)
	}
	if rf.Values[workload] == nil {
		rf.Values[workload] = map[string][]float64{}
	}
	for name, v := range res.Metrics {
		rf.Values[workload][name] = append(rf.Values[workload][name], v.Value)
	}
	return nil
}

// writeTrace writes the traced run's spans as Chrome trace-event JSON.
func writeTrace(dir, workload string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
