package lib

import "testing"

func TestOnly(t *testing.T) {
	if OnlyTests()+New(Config{TestOnly: 1}).TestOnly != 5 {
		t.Fatal("fixture")
	}
}
