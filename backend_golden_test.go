package polis

// Back-end regression gate: the generated C, the object-code listing,
// the measured code size and cycle bounds and the estimate of every
// module in a fixed matrix are pinned in testdata/backend_golden.json.
// The matrix covers the example designs (the Esterel programs of
// examples/quickstart and examples/trafficlight, read from their
// sources, plus the dashboard and shock-absorber networks) and 40
// seeded randcfsm modules, some at Scaled(2) and Scaled(3), each
// synthesized through the pipeline for {HC11, R3K} x {Reduce off, on}
// x {OptimizeCopies off, on}. Two further variants per target and
// copy setting run the back end on the module's s-graph after
// CollapseTests, so multi-test TEST vertices (combined outcome
// indices, switch dispatch) are covered: once as built, once with
// every TEST vertex's hot order reversed and an if/switch threshold of
// 8 (branch-away-on-false tests, compare chains in hot order). Any
// change to code generation, the instruction stream, the listing
// renderer, cycle analysis or estimation must reproduce these bytes
// exactly. Regenerate deliberately with
// `go test -run BackendGolden -update`.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/esterel"
	"polis/internal/estimate"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// backendGoldenRecord pins one (module, target, reduce, copies)
// synthesis result.
type backendGoldenRecord struct {
	Module   string          `json:"module"`
	Variant  string          `json:"variant,omitempty"` // "" = pipeline
	Target   string          `json:"target"`
	Reduce   bool            `json:"reduce"`
	Copies   bool            `json:"copies"`
	CHash    string          `json:"c_hash"`       // sha256 of the generated C routine
	LHash    string          `json:"listing_hash"` // sha256 of the object-code listing
	CodeSize int             `json:"code_size"`
	Measured vm.PathCycles   `json:"measured"`
	Estimate estimate.Result `json:"estimate"`
}

// exampleProgram returns the Esterel program embedded as the first
// raw string literal of an example's main.go.
func exampleProgram(t *testing.T, dir string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.SplitN(string(src), "`", 3)
	if len(parts) < 3 || !strings.Contains(parts[1], "module ") {
		t.Fatalf("examples/%s: no embedded Esterel program", dir)
	}
	return parts[1]
}

// goldenModule is one module of the matrix under a unique label.
type goldenModule struct {
	label string
	m     *cfsm.CFSM
}

// backendGoldenModules returns the pinned module matrix in a fixed
// order: example designs first, then the seeded random modules.
func backendGoldenModules(t *testing.T) []goldenModule {
	t.Helper()
	var mods []goldenModule
	add := func(prefix string, ms []*cfsm.CFSM) {
		for _, m := range ms {
			mods = append(mods, goldenModule{prefix + "/" + m.Name, m})
		}
	}
	for _, dir := range []string{"quickstart", "trafficlight"} {
		net, _, err := esterel.CompileProgram(exampleProgram(t, dir))
		if err != nil {
			t.Fatalf("examples/%s: %v", dir, err)
		}
		add(dir, net.Machines)
	}
	add("dashboard", designs.NewDashboard().Modules())
	add("shockabsorber", designs.NewShockAbsorber().Modules())
	for _, set := range []struct {
		seed  int64
		n     int
		scale int
	}{
		{1, 8, 1}, {2, 8, 1}, {3, 8, 1}, {4, 8, 1},
		{5, 5, 2}, {6, 3, 3},
	} {
		net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(set.seed)), set.n, randcfsm.Scaled(set.scale))
		if err != nil {
			t.Fatalf("seed %d: %v", set.seed, err)
		}
		add(fmt.Sprintf("seed%d-x%d", set.seed, set.scale), net.Machines)
	}
	return mods
}

func backendGoldenRun(t *testing.T) []backendGoldenRecord {
	t.Helper()
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	var out []backendGoldenRecord
	for _, gm := range backendGoldenModules(t) {
		m := gm.m
		for _, target := range []*vm.Profile{vm.HC11(), vm.R3K()} {
			for _, reduce := range []bool{false, true} {
				for _, copies := range []bool{false, true} {
					a, err := pipeline.SynthesizeModule(m, pipeline.Options{
						Target:  target,
						Reduce:  reduce,
						Codegen: codegen.Options{OptimizeCopies: copies},
					}, nil)
					if err != nil {
						t.Fatalf("%s %s reduce=%v copies=%v: %v", m.Name, target.Name, reduce, copies, err)
					}
					out = append(out, backendGoldenRecord{
						Module:   gm.label,
						Target:   target.Name,
						Reduce:   reduce,
						Copies:   copies,
						CHash:    hash(a.C),
						LHash:    hash(a.Listing),
						CodeSize: a.CodeSize,
						Measured: a.Measured,
						Estimate: a.Estimate,
					})
				}
			}
		}
		for _, variant := range []string{"collapse", "collapse-hot-if8"} {
			g := collapsedGraph(t, m, variant == "collapse-hot-if8")
			for _, target := range []*vm.Profile{vm.HC11(), vm.R3K()} {
				for _, copies := range []bool{false, true} {
					opts := codegen.Options{OptimizeCopies: copies}
					if variant == "collapse-hot-if8" {
						opts.IfThreshold = 8
					}
					prog, err := codegen.Assemble(g, codegen.NewSignalMap(m), opts)
					if err != nil {
						t.Fatalf("%s %s: %v", gm.label, variant, err)
					}
					meas, err := vm.AnalyzeCycles(target, prog, codegen.EntryLabel(m))
					if err != nil {
						t.Fatalf("%s %s: %v", gm.label, variant, err)
					}
					params, err := estimate.CalibrateCached(target)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, backendGoldenRecord{
						Module:   gm.label,
						Variant:  variant,
						Target:   target.Name,
						Copies:   copies,
						CHash:    hash(codegen.EmitC(g, opts)),
						LHash:    hash(prog.Listing()),
						CodeSize: target.CodeSize(prog),
						Measured: meas,
						Estimate: estimate.EstimateSGraph(g, params, estimate.Options{Codegen: opts}),
					})
				}
			}
		}
	}
	return out
}

// collapsedGraph builds m's s-graph with the default ordering and
// collapses its TEST chains; with hot set, every TEST vertex's hot
// order is the reversed outcome order.
func collapsedGraph(t *testing.T, m *cfsm.CFSM, hot bool) *sgraph.SGraph {
	t.Helper()
	r, err := cfsm.BuildReactive(m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Space.Release()
	if err := sgraph.ApplyOrdering(r, sgraph.OrderSiftAfterSupport); err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.FromChi(r)
	if err != nil {
		t.Fatal(err)
	}
	g.CollapseTests(32)
	if hot {
		for _, v := range g.Vertices {
			if v.Kind == sgraph.Test {
				v.Hot = make([]int, v.Arity())
				for k := range v.Hot {
					v.Hot[k] = len(v.Hot) - 1 - k
				}
			}
		}
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBackendGolden asserts that the back end still produces exactly
// the pinned C, listing, code size, cycle bounds and estimates.
func TestBackendGolden(t *testing.T) {
	got := backendGoldenRun(t)
	path := filepath.Join("testdata", "backend_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	var want []backendGoldenRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	mismatches := 0
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("record %d diverged from the pinned back end:\n want %+v\n  got %+v", i, want[i], got[i])
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d further mismatches", mismatches-5)
	}
}
