//go:build bdddebug

package mvar

import (
	"testing"

	"polis/internal/bdd"
)

// TestReleasedSpacePanics verifies that, under the bdddebug tag, a
// released space's manager refuses every checked call — even from the
// goroutine that released it — and that NewSpace re-binds a pooled
// manager to its new owner, also on another goroutine.
func TestReleasedSpacePanics(t *testing.T) {
	s := NewSpace()
	v := s.NewMV("v", 3, Input)
	f := s.Eq(v, 1)
	m := s.M
	s.Release()

	calls := map[string]func(){
		"NewVar":  func() { m.NewVar("w") },
		"And":     func() { m.And(f, f) },
		"Protect": func() { m.Protect(f) },
		"Sift":    func() { m.Sift(bdd.SiftOptions{}) },
		"Reset":   func() { m.Reset() },
		"NewMV":   func() { s.NewMV("w", 2, Input) },
		"Release": func() { s.Release() },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released space did not panic under bdddebug", name)
				}
			}()
			call()
		}()
	}

	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		s := NewSpace()
		v := s.NewMV("v", 4, Input)
		s.M.And(s.Eq(v, 2), s.Eq(v, 2))
		s.Release()
	}()
	if r := <-done; r != nil {
		t.Fatalf("space from NewSpace panicked on a new goroutine: %v", r)
	}
}
