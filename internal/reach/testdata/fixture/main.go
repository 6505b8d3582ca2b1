// Command fixture is the reachability checker's test input: one of each
// shape the checker classifies (see ../../fixture_test.go).
package main

import "fixture/lib"

func main() {
	c := lib.New(lib.DefaultConfig())
	c.ProgramSet = 3
	println(lib.Total([]lib.Shape{lib.Square{Side: c.ProgramSet}}) + lib.Reached())
}
