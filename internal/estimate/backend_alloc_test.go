//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so
// the reuse this test pins cannot be measured under it.

package estimate

import (
	"math/rand"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// backendAllocsBefore is the allocations per round TestBackendAllocs
// measured before the back end's allocation-lean rewrite (fmt-built
// labels and text, append-grown instruction streams, map-keyed
// analyses); the rewrite measured 402.
const backendAllocsBefore = 2015

// TestBackendAllocs pins the allocation budget of the per-module back
// end — Assemble, EmitC, AnalyzeCycles, Listing and EstimateSGraph —
// on a fixed reduced Scaled(3) randcfsm module (36 s-graph vertices),
// after one warm-up round: at most half of backendAllocsBefore.
func TestBackendAllocs(t *testing.T) {
	m := randcfsm.New(rand.New(rand.NewSource(29)), randcfsm.Scaled(3)).C
	r, err := cfsm.BuildReactive(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sgraph.ApplyOrdering(r, sgraph.OrderSiftAfterSupport); err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.FromChi(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Space.Release()
	g.Reduce(sgraph.ReduceOptions{})
	prof := vm.HC11()
	params, err := Calibrate(prof)
	if err != nil {
		t.Fatal(err)
	}
	sigs := codegen.NewSignalMap(m)
	opts := codegen.Options{}
	round := func() {
		prog, err := codegen.Assemble(g, sigs, opts)
		if err != nil {
			t.Fatal(err)
		}
		_ = codegen.EmitC(g, opts)
		if _, err := vm.AnalyzeCycles(prof, prog, codegen.EntryLabel(m)); err != nil {
			t.Fatal(err)
		}
		_ = prog.Listing()
		_ = EstimateSGraph(g, params, Options{Codegen: opts})
	}
	round()
	got := testing.AllocsPerRun(20, round)
	t.Logf("back-end allocations per round: %.0f (before the rewrite: %d)", got, backendAllocsBefore)
	if got > backendAllocsBefore/2 {
		t.Fatalf("back end allocates %.0f times per round, more than half of %d", got, backendAllocsBefore)
	}
}
