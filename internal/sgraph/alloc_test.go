//go:build !race && !bdddebug

// The race detector makes sync.Pool drop a random share of Puts, so
// the reuse this test pins cannot be measured under it; the bdddebug
// ownership checks allocate on every checked call.

package sgraph

import (
	"math/rand"
	"runtime"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
)

// TestReleasedSpaceAllocs pins the point of recycling BDD spaces: a
// BuildReactive → ApplyOrdering → FromChi → Release round on a space
// a previous round released must allocate at most 3/4 as often as the
// same round on a fresh manager. Measured on this Scaled(3) randcfsm
// module: 210 allocations per fresh round, 146 per recycled one. The
// recycled round's allocations are the ones that scale with the
// module's variables rather than its BDD — test and action names, the
// multi-valued variables, the s-graph itself — so across 60 Scaled(2)
// and Scaled(3) modules the ratio ranges from 0.62 to 0.74, while the
// bytes allocated fall far more (the arena, tables and cache are no
// longer regrown).
func TestReleasedSpaceAllocs(t *testing.T) {
	m := randcfsm.New(rand.New(rand.NewSource(7)), randcfsm.Scaled(3)).C
	round := func(release bool) {
		r, err := cfsm.BuildReactive(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyOrdering(r, OrderSiftAfterSupport); err != nil {
			t.Fatal(err)
		}
		if _, err := FromChi(r); err != nil {
			t.Fatal(err)
		}
		if release {
			r.Space.Release()
		}
	}
	// Two collections empty the space pool, so unreleased rounds each
	// start from bdd.New.
	runtime.GC()
	runtime.GC()
	fresh := testing.AllocsPerRun(20, func() { round(false) })
	recycled := testing.AllocsPerRun(20, func() { round(true) })
	t.Logf("allocations per round: fresh %.0f, recycled %.0f", fresh, recycled)
	if recycled > fresh*3/4 {
		t.Fatalf("recycled round allocates %.0f times, more than 3/4 of a fresh round's %.0f", recycled, fresh)
	}
}
