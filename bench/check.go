package main

import (
	"errors"
	"fmt"

	"tca"
	"tca/internal/workload"
)

// expectation is the outside-only output check: the warehouse YTD and
// district order counters a settled cell must hold, accumulated from the
// ops the harness saw succeed. Both are commutative Adds, exact on all
// five cells whatever order the ops applied in.
type expectation struct {
	wh   [warehouses]int64
	dist [warehouses][districts]int64
}

// applied reports whether an op with this outcome changed cell state. On
// the dataflow cell an accepted op is exactly-once in the ingress and
// applies even if its handle errs (drop, timeout); only a shed never
// entered. Every other cell applies exactly the ops that succeed.
func applied(model tca.ProgrammingModel, err error) bool {
	if err == nil {
		return true
	}
	return model == tca.StatefulDataflow && !errors.Is(err, tca.ErrOverloaded)
}

func (e *expectation) add(op workload.TPCCOp) {
	switch op.Kind {
	case workload.TPCCPayment:
		e.wh[op.Warehouse] += op.Amount
	case workload.TPCCNewOrder:
		e.dist[op.Warehouse][op.District]++
	}
}

func (e *expectation) merge(o *expectation) {
	for w := range e.wh {
		e.wh[w] += o.wh[w]
		for d := range e.dist[w] {
			e.dist[w][d] += o.dist[w][d]
		}
	}
}

// readInt reads one settled counter from the cell.
func readInt(cell tca.Cell, key string) (int64, error) {
	raw, _, err := cell.Read(key)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", key, err)
	}
	return tca.DecodeInt(raw), nil
}

// drift compares the settled cell against the expectation and returns the
// keys off it, each as "key: got G want W".
func (e *expectation) drift(cell tca.Cell) ([]string, error) {
	var off []string
	for w := 0; w < warehouses; w++ {
		key := workload.WarehouseKey(w)
		got, err := readInt(cell, key)
		if err != nil {
			return nil, err
		}
		if got != e.wh[w] {
			off = append(off, fmt.Sprintf("%s: got %d want %d", key, got, e.wh[w]))
		}
		for d := 0; d < districts; d++ {
			key := workload.DistrictKey(w, d)
			got, err := readInt(cell, key)
			if err != nil {
				return nil, err
			}
			if got != e.dist[w][d] {
				off = append(off, fmt.Sprintf("%s: got %d want %d", key, got, e.dist[w][d]))
			}
		}
	}
	return off, nil
}
