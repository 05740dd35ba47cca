// Command sgestimate prints the Table I style cost/performance report:
// the s-graph estimator's code size and min/max cycles for every
// module of a benchmark design, next to exact measurements of the
// compiled object code.
//
// Usage:
//
//	sgestimate [-target hc11|r3k] [-design dashboard|shock]
package main

import (
	"flag"
	"fmt"
	"os"

	"polis/internal/designs"
	"polis/internal/experiments"
	"polis/internal/pipeline"
	"polis/internal/vm"
)

func main() {
	target := flag.String("target", "hc11", "cost profile: hc11 or r3k")
	design := flag.String("design", "dashboard", "benchmark design: dashboard or shock")
	flag.Parse()

	prof, err := vm.ProfileByName(*target)
	if err != nil {
		fatal(err)
	}

	switch *design {
	case "dashboard":
		rows, err := experiments.Table1(prof)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatTable1(prof, rows))
	case "shock":
		s := designs.NewShockAbsorber()
		fmt.Printf("Cost/performance estimation, shock absorber, target %s\n", prof.Name)
		fmt.Printf("%-16s %9s %9s %9s %9s\n", "CFSM", "est size", "act size", "est max", "act max")
		for _, m := range s.Modules() {
			a, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof}, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %9d %9d %9d %9d\n",
				m.Name, a.Estimate.CodeBytes, a.CodeSize, a.Estimate.MaxCycles, a.Measured.Max)
		}
	default:
		fatal(fmt.Errorf("unknown design %q", *design))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgestimate:", err)
	os.Exit(1)
}
