package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (end-to-end metric, workload) row of a comparison.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one metric on one workload: b is worse when its
// median is worse than a's by more than the metric's bound; a row whose
// run-to-run spread (quartile distance over the median, the larger of the
// two sides) exceeds the bound cannot be told apart from noise and is
// reported unresolved rather than unchanged. A single run has no spread.
func judge(d metricDef, a, b []float64) (ma, mb, delta float64, v verdict) {
	ma, mb = median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	loss := delta // share by which b is worse
	if d.Better == "higher" {
		loss = -delta
	}
	switch {
	case max(quartileSpread(a), quartileSpread(b)) > d.Bound:
		v = unresolved
	case loss > d.Bound:
		v = worse
	default:
		v = ok
	}
	return ma, mb, delta, v
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (end-to-end metric, workload) and returns
// 1 when any row is worse, 2 when a file cannot be read or lacks a row.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s\nb: %s\n", a.Fingerprint, b.Fingerprint)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tdelta\tbound\tverdict")
	status := 0
	for _, w := range workloads() {
		for _, d := range endToEnd {
			va, vb := a.Values[w.name][d.Name], b.Values[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stderr, "bench: %s %s missing from a result file\n", w.name, d.Name)
				return 2
			}
			ma, mb, delta, v := judge(d, va, vb)
			if v == worse {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", w.name, d.Name, ma, mb, delta*100, d.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return status
}
