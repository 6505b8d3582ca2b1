// Package lib holds the fixture's functions and settings.
package lib

// Shape is called through by Total.
type Shape interface{ Area() int }

// Square is reached: main builds one.
type Square struct{ Side int }

// Area is reached only through the interface call in Total.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is a method of a reached type that nothing calls.
func (s Square) Perimeter() int { return 4 * s.Side }

// Total calls Area through Shape.
func Total(shapes []Shape) int {
	t := 0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Reached is called by main.
func Reached() int { return helper() + byVar() + counted }

func helper() int { return 1 }

var counted int

// init is a root.
func init() { counted = fromInit() }

func fromInit() int { return 6 }

// table is a package-level initializer: a root.
var table = map[string]func() int{"init": fromInitializer}

func fromInitializer() int { return 2 }

func byVar() int { return table["init"]() }

// Unreached is called by nothing.
func Unreached() int { return 3 }

// OnlyTests is called by lib_test.go alone.
func OnlyTests() int { return 4 }

// Config is the fixture's settings.
type Config struct {
	// ProgramSet is set by main.
	ProgramSet int
	// DefaultOnly is set by DefaultConfig alone.
	DefaultOnly int
	// Defaulted is set only by New's zero-means-default fill.
	Defaulted int
	// TestOnly is set by lib_test.go alone.
	TestOnly int
}

// DefaultConfig fills in DefaultOnly.
func DefaultConfig() Config { return Config{DefaultOnly: 5} }

// New fills in Defaulted when it is zero.
func New(c Config) Config {
	if c.Defaulted == 0 {
		c.Defaulted = 7
	}
	return c
}
