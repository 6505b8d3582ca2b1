package workload

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// DecodeTPCCOp decodes a JSON-encoded TPCCOp. Input in the exact layout
// json.Marshal(TPCCOp) emits is parsed in one pass without reflection;
// anything else goes to json.Unmarshal, so every input decodes to the
// value and the error-ness json.Unmarshal gives.
func DecodeTPCCOp(b []byte) (TPCCOp, error) {
	if op, ok := decodeTPCCOpFast(b); ok {
		return op, nil
	}
	var op TPCCOp
	err := json.Unmarshal(b, &op)
	return op, err
}

// decodeTPCCOpFast parses the json.Marshal layout of a TPCCOp, fields in
// declaration order; ok is false as soon as the input departs from it.
func decodeTPCCOpFast(b []byte) (op TPCCOp, ok bool) {
	s := scanner{b: b, ok: true}
	s.lit(`{"Kind":`)
	op.Kind = TPCCKind(s.int(strconv.IntSize))
	s.lit(`,"Warehouse":`)
	op.Warehouse = int(s.int(strconv.IntSize))
	s.lit(`,"District":`)
	op.District = int(s.int(strconv.IntSize))
	s.lit(`,"Customer":`)
	op.Customer = int(s.int(strconv.IntSize))
	s.lit(`,"Items":`)
	if !s.skip("null") {
		s.lit("[")
		// One allocation: in this layout each '{' before the ']' opens an item.
		if end := bytes.IndexByte(s.b, ']'); end >= 0 {
			op.Items = make([]TPCCItem, 0, bytes.Count(s.b[:end], []byte("{")))
		}
		for s.ok && !s.skip("]") {
			if len(op.Items) > 0 {
				s.lit(",")
			}
			s.lit(`{"ItemID":`)
			id := int(s.int(strconv.IntSize))
			s.lit(`,"Qty":`)
			op.Items = append(op.Items, TPCCItem{ItemID: id, Qty: int(s.int(strconv.IntSize))})
			s.lit("}")
		}
	}
	s.lit(`,"Amount":`)
	op.Amount = s.int(64)
	s.lit(`,"Threshold":`)
	op.Threshold = s.int(64)
	s.lit(`,"Remote":`)
	if op.Remote = s.skip("true"); !op.Remote {
		s.lit("false")
	}
	s.lit(`,"RemoteWarehouse":`)
	op.RemoteWarehouse = int(s.int(strconv.IntSize))
	s.lit("}")
	return op, s.ok && len(s.b) == 0
}

// scanner consumes b front to back; the first mismatch clears ok, and
// every later call is then a no-op.
type scanner struct {
	b  []byte
	ok bool
}

// skip consumes l if the input starts with it.
func (s *scanner) skip(l string) bool {
	if !s.ok || !bytes.HasPrefix(s.b, []byte(l)) {
		return false
	}
	s.b = s.b[len(l):]
	return true
}

// lit consumes l or fails the scan.
func (s *scanner) lit(l string) {
	s.ok = s.skip(l)
}

// int consumes an integer as json.Marshal writes it — an optional '-',
// then digits without a leading zero — that fits a signed integer of the
// given size. A '+', a leading zero or an overflow fails the scan; so do
// a fraction and an exponent, on the literal that must follow.
func (s *scanner) int(bits int) int64 {
	start := 0
	if len(s.b) > 0 && s.b[0] == '-' {
		start = 1
	}
	n := start
	for n < len(s.b) && '0' <= s.b[n] && s.b[n] <= '9' {
		n++
	}
	v, err := strconv.ParseInt(string(s.b[:n]), 10, bits)
	if !s.ok || err != nil || (n-start > 1 && s.b[start] == '0') {
		s.ok = false
		return 0
	}
	s.b = s.b[n:]
	return v
}
