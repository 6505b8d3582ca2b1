package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is -compare's judgement of one workload × end-to-end metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the change's value b against the base a for a metric
// with the given direction and bound. worsening is how far b is on the
// wrong side of a, as a share of a. When either side's rounds disagree
// among themselves by more than the bound, the run cannot resolve a
// difference of that size and says so instead of "ok" or "worse".
func judge(m metricDef, a, b metricValue) (worsening float64, v verdict) {
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / a.Value
		if m.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case spread(a.Rounds) > m.Bound || spread(b.Rounds) > m.Bound:
		return worsening, verdictUnresolved
	case worsening > m.Bound:
		return worsening, verdictWorse
	default:
		return worsening, verdictOK
	}
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload × end-to-end metric, both values, the
// ratio with its base, the bound and the verdict, and returns the exit
// code: 1 on any "worse" or on a workload or metric missing from b.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	return compare(w, a, b)
}

func compare(w io.Writer, a, b *results) int {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %22s %7s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil || wb.EndToEnd == nil {
			fmt.Fprintf(w, "%-16s missing from the change's results\n", name)
			code = 1
			continue
		}
		for _, m := range endToEndMetrics {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA {
				continue
			}
			if !okB {
				fmt.Fprintf(w, "%-16s %-18s missing from the change's results\n", name, m.Name)
				code = 1
				continue
			}
			worsening, v := judge(m, va, vb)
			ratio := "n/a"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g %s", vb.Value/va.Value, va.Value, va.Unit)
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %22s %6.0f%%  %s (%+.1f%%)\n",
				name, m.Name, va.Value, vb.Value, ratio, m.Bound*100, v, worsening*100)
			if v == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
