package experiments

// Experiments regression gate: the rendered tables of the paper's
// experiments and the synthesis ablations are pinned byte for byte in
// testdata/experiments_golden.txt, so any change to how the tables
// are synthesized must reproduce every number. Table III is pinned
// without its Synthesis column, which is wall time. Regenerate
// deliberately with `go test ./internal/experiments -run Golden -update`.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polis/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// experimentsReport renders every pinned table, in a fixed order.
func experimentsReport(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	add := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		t1, err := Table1(prof)
		add(FormatTable1(prof, t1), err)
		t2, err := Table2(prof)
		add(FormatTable2(prof, t2), err)
		cl, err := AblationCollapse(prof)
		add(FormatCollapse(prof, cl), err)
		cp, err := AblationCopies(prof)
		add(FormatCopies(prof, cp), err)
		fp, err := AblationFalsePaths(prof)
		add(FormatFalsePaths(prof, fp), err)
		rd, err := AblationReduce(prof)
		add(FormatReduce(prof, rd), err)
		sa, err := ShockAbsorberExperiment(prof)
		if err != nil {
			t.Fatal(err)
		}
		add(FormatShock(prof, sa), nil)
	}
	prof := vm.R3K()
	t3, err := Table3(prof)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Table III without wall-time synthesis, target %s\n", prof.Name)
	for _, r := range t3 {
		fmt.Fprintf(&b, "%-12s %10d %10d %12d\n", r.Approach, r.CodeBytes, r.DataBytes, r.SimCycles)
	}
	return b.String()
}

// TestExperimentsGolden asserts that every pinned table renders
// exactly as recorded.
func TestExperimentsGolden(t *testing.T) {
	got := experimentsReport(t)
	path := filepath.Join("testdata", "experiments_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d diverged from the pinned tables:\n want %q\n  got %q", i+1, w, g)
			}
		}
	}
}
