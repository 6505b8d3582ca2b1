package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval of the traced run, in the flat event-log
// shape the breakdown table groups over: spans of one op share OpID,
// Parent names the span of the same op that caused this one ("" for the
// op's root), and run-level spans (setup, settle, verify) carry OpID 0.
// Times are nanoseconds since the round began.
type span struct {
	OpID   int64
	Name   string
	Start  int64
	End    int64
	Parent string
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once). The result is indexed like spans.
func selfTimes(spans []span) []int64 {
	type key struct {
		op   int64
		name string
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.OpID, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[key{s.OpID, s.Name}]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerRow is one line of the breakdown table: a group-by over the span
// log on the span name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
}

func breakdown(spans []span) []layerRow {
	self := selfTimes(spans)
	type acc struct {
		total, self int64
		durs        []int64
	}
	by := map[string]*acc{}
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.total += s.End - s.Start
		a.self += self[i]
		a.durs = append(a.durs, s.End-s.Start)
	}
	rows := make([]layerRow, 0, len(by))
	for name, a := range by {
		sortInt64(a.durs)
		rows = append(rows, layerRow{
			Name:    name,
			Count:   len(a.durs),
			TotalMS: float64(a.total) / 1e6,
			SelfMS:  float64(a.self) / 1e6,
			P50US:   float64(a.durs[len(a.durs)/2]) / 1e3,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// writeTrace writes the span log and the boundary counters as one JSON
// document: {"workload", "seed", "counters": {...}, "spans": [[op_id,
// name, start_ns, end_ns, parent], ...]} — spans as rows to keep a
// quarter-million of them small.
func writeTrace(path, workload string, seed int64, counters map[string]float64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"span_columns\":[\"op_id\",\"name\",\"start_ns\",\"end_ns\",\"parent\"],\n\"counters\":{", workload, seed)
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%g", k, counters[k])
	}
	w.WriteString("},\n\"spans\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%q,%d,%d,%q]", s.OpID, s.Name, s.Start, s.End, s.Parent)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
