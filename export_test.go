package tca

// Test seams: methods only tests call. This file is compiled into the
// package for its own tests and for bench_test.go's external package.

// PeekBalance reads a balance without settling — the dirty read an
// external observer performs, which E7 uses to expose the dataflow cell's
// missing isolation. Synchronous cells read committed state.
func (b *bankCell) PeekBalance(account int) int64 {
	raw, _ := livePeek(b.cell, acctKey(account))
	return DecodeInt(raw)
}

// handlerErrors returns the number of dropped (errored) handler
// invocations and the most recent error.
func (c *statefunExec) handlerErrors() (int64, error) {
	box, _ := c.lastHandlerErr.Load().(sfErrBox)
	return c.handlerErrs.Load(), box.err
}
