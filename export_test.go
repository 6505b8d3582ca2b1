package tca

// Test seams: methods only the package's own tests call.

// handlerErrors returns the number of dropped (errored) handler
// invocations and the most recent error.
func (c *statefunExec) handlerErrors() (int64, error) {
	box, _ := c.lastHandlerErr.Load().(sfErrBox)
	return c.handlerErrs.Load(), box.err
}
