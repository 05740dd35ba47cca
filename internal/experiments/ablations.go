package experiments

import (
	"fmt"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// CollapseRow reports the TEST-node collapsing ablation for one CFSM
// (Section III-B3d: the paper never observed an improvement).
type CollapseRow struct {
	Module       string
	PlainBytes   int64
	CollapsedB   int64
	PlainMaxCyc  int64
	CollapsedCyc int64
	NodesMerged  int
}

// AblationCollapse measures TEST-node collapsing on the dashboard.
func AblationCollapse(prof *vm.Profile) ([]CollapseRow, error) {
	d := designs.NewDashboard()
	var rows []CollapseRow
	for _, m := range d.Modules() {
		a, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof}, nil)
		if err != nil {
			return nil, err
		}
		row := CollapseRow{
			Module:      m.Name,
			PlainBytes:  int64(a.CodeSize),
			PlainMaxCyc: a.Measured.Max,
		}
		// Collapse the artifact's own graph and re-assemble it.
		row.NodesMerged = a.SGraph.CollapseTests(32)
		p2, err := codegen.Assemble(a.SGraph, codegen.NewSignalMap(m), codegen.Options{})
		if err != nil {
			return nil, err
		}
		act2, err := vm.AnalyzeCycles(prof, p2, codegen.EntryLabel(m))
		if err != nil {
			return nil, err
		}
		row.CollapsedB = int64(prof.CodeSize(p2))
		row.CollapsedCyc = act2.Max
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatCollapse renders the collapsing ablation.
func FormatCollapse(prof *vm.Profile, rows []CollapseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: TEST-node collapsing (Section III-B3d), target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %8s %9s %9s %9s %7s\n",
		"CFSM", "plain B", "collap B", "plain cy", "collap cy", "merged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %9d %9d %9d %7d\n",
			r.Module, r.PlainBytes, r.CollapsedB, r.PlainMaxCyc, r.CollapsedCyc, r.NodesMerged)
	}
	return b.String()
}

// RTOSReport is the Section IV-E ablation: generated versus
// commercial-style RTOS size, and polling versus interrupt delivery
// latency on the shock absorber's sensor chain.
type RTOSReport struct {
	GeneratedROM  int64
	GeneratedRAM  int64
	CommercialROM int64
	CommercialRAM int64
	InterruptLat  int64 // max sensor->solenoid latency, cycles
	PollingLat    int64 // same with the sample delivered by polling
	PollPeriod    int64
}

// AblationRTOS runs the RTOS comparison.
func AblationRTOS(prof *vm.Profile) (*RTOSReport, error) {
	s := designs.NewShockAbsorber()
	cfg := rtos.DefaultConfig()
	gen := rtos.SizeEstimate(prof, s.Net, cfg)
	com := rtos.CommercialSizeEstimate(prof, s.Net, cfg)
	rep := &RTOSReport{
		GeneratedROM:  gen.CodeBytes,
		GeneratedRAM:  gen.DataBytes,
		CommercialROM: com.CodeBytes,
		CommercialRAM: com.DataBytes,
		PollPeriod:    cfg.PollPeriod,
	}
	run := func(deliver rtos.Delivery) (int64, error) {
		c := rtos.DefaultConfig()
		c.Deliver = map[*cfsm.Signal]rtos.Delivery{s.AccelSample: deliver}
		var stim []sim.Stimulus
		stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1100, 9000, 300_000,
			func(i int) int64 { return int64(80 + (i%4)*6) })...)
		stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 90})
		res, err := sim.Run(s.Net, stim, 400_000, sim.Options{
			Cfg: c, Mode: sim.VMExact, Profile: prof,
			Ordering: sgraph.OrderSiftAfterSupport,
		})
		if err != nil {
			return 0, err
		}
		return sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid), nil
	}
	var err error
	if rep.InterruptLat, err = run(rtos.Interrupt); err != nil {
		return nil, err
	}
	if rep.PollingLat, err = run(rtos.Polling); err != nil {
		return nil, err
	}
	return rep, nil
}

// FormatRTOS renders the RTOS ablation.
func FormatRTOS(prof *vm.Profile, r *RTOSReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: generated vs commercial RTOS (Section IV-E), target %s\n", prof.Name)
	fmt.Fprintf(&b, "  generated:  ROM %6d B  RAM %5d B\n", r.GeneratedROM, r.GeneratedRAM)
	fmt.Fprintf(&b, "  commercial: ROM %6d B  RAM %5d B\n", r.CommercialROM, r.CommercialRAM)
	fmt.Fprintf(&b, "  delivery latency: interrupt %d cycles, polling %d cycles (period %d)\n",
		r.InterruptLat, r.PollingLat, r.PollPeriod)
	return b.String()
}

// CopyRow reports the copy-on-entry optimisation per module.
type CopyRow struct {
	Module   string
	FullROM  int64
	FullRAM  int64
	OptROM   int64
	OptRAM   int64
	FullWCET int64
	OptWCET  int64
}

// AblationCopies quantifies the write-before-read data-flow analysis
// the paper lists as the pending ROM/RAM/CPU improvement (Section V-B)
// over the shock-absorber modules.
func AblationCopies(prof *vm.Profile) ([]CopyRow, error) {
	s := designs.NewShockAbsorber()
	var rows []CopyRow
	for _, m := range s.Modules() {
		row := CopyRow{Module: m.Name}
		for _, opt := range []bool{false, true} {
			a, err := pipeline.SynthesizeModule(m, pipeline.Options{
				Target:  prof,
				Codegen: codegen.Options{OptimizeCopies: opt},
			}, nil)
			if err != nil {
				return nil, err
			}
			rom, ram := int64(a.CodeSize), int64(prof.DataSize(a.Program))
			if opt {
				row.OptROM, row.OptRAM, row.OptWCET = rom, ram, a.Measured.Max
			} else {
				row.FullROM, row.FullRAM, row.FullWCET = rom, ram, a.Measured.Max
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatCopies renders the copy ablation.
func FormatCopies(prof *vm.Profile, rows []CopyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: copy-on-entry vs write-before-read analysis, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s %9s %9s\n",
		"CFSM", "ROM", "optROM", "RAM", "optRAM", "WCET", "optWCET")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %8d %8d %8d %9d %9d\n",
			r.Module, r.FullROM, r.OptROM, r.FullRAM, r.OptRAM, r.FullWCET, r.OptWCET)
	}
	return b.String()
}

// FalsePathRow compares the plain and false-path-aware WCET bounds.
type FalsePathRow struct {
	Module    string
	PlainMax  int64
	PrunedMax int64
}

// AblationFalsePaths measures the effect of event-incompatibility
// pruning (Section III-C) on the estimator's worst-case bound.
func AblationFalsePaths(prof *vm.Profile) ([]FalsePathRow, error) {
	d := designs.NewDashboard()
	var rows []FalsePathRow
	for _, m := range d.Modules() {
		plain, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof}, nil)
		if err != nil {
			return nil, err
		}
		pruned, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof, UseFalsePaths: true}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FalsePathRow{
			Module:    m.Name,
			PlainMax:  plain.Estimate.MaxCycles,
			PrunedMax: pruned.Estimate.MaxCycles,
		})
	}
	return rows, nil
}

// FormatFalsePaths renders the false-path ablation.
func FormatFalsePaths(prof *vm.Profile, rows []FalsePathRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: false-path pruning of the WCET bound, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-16s %10s %10s\n", "CFSM", "plain max", "pruned max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d\n", r.Module, r.PlainMax, r.PrunedMax)
	}
	return b.String()
}

// ReduceRow reports the s-graph reduction ablation for one CFSM:
// plain versus reduced vertex counts, measured code size and cycle
// bounds, and the estimator's ROM/WCET view of both graphs.
type ReduceRow struct {
	Module       string
	PlainVerts   int
	ReducedVerts int
	PlainBytes   int64
	ReducedBytes int64
	PlainMaxCyc  int64
	ReducedCyc   int64
	EstPlainROM  int64
	EstReducedR  int64
	EstPlainMax  int64
	EstReducedM  int64
	Stats        sgraph.ReduceStats
}

// AblationReduce measures the fixed-point s-graph reduction engine
// (sharing, don't-care TEST elimination, ASSIGN straightening) over
// the dashboard and shock-absorber modules. Graphs straight out of
// procedure build are already maximally shared, so the interesting
// rows are the modules with declared test exclusivities (the timer's
// at50/at150 predicates), where don't-care elimination removes TESTs
// the BDD construction cannot see are unreachable.
func AblationReduce(prof *vm.Profile) ([]ReduceRow, error) {
	var modules []*cfsm.CFSM
	modules = append(modules, designs.NewDashboard().Modules()...)
	modules = append(modules, designs.NewShockAbsorber().Modules()...)
	var rows []ReduceRow
	for _, m := range modules {
		plain, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof}, nil)
		if err != nil {
			return nil, err
		}
		red, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof, Reduce: true}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReduceRow{
			Module:       m.Name,
			PlainVerts:   plain.Stats.Vertices,
			ReducedVerts: red.Stats.Vertices,
			PlainBytes:   int64(plain.CodeSize),
			ReducedBytes: int64(red.CodeSize),
			PlainMaxCyc:  plain.Measured.Max,
			ReducedCyc:   red.Measured.Max,
			EstPlainROM:  plain.Estimate.CodeBytes,
			EstReducedR:  red.Estimate.CodeBytes,
			EstPlainMax:  plain.Estimate.MaxCycles,
			EstReducedM:  red.Estimate.MaxCycles,
			Stats:        red.Reduce,
		})
	}
	return rows, nil
}

// FormatReduce renders the reduction ablation.
func FormatReduce(prof *vm.Profile, rows []ReduceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: s-graph reduction engine, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %6s %6s %8s %8s %9s %9s %8s %8s %6s\n",
		"CFSM", "v", "v'", "bytes", "bytes'", "maxcyc", "maxcyc'", "estROM", "estROM'", "elim")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %6d %8d %8d %9d %9d %8d %8d %6d\n",
			r.Module, r.PlainVerts, r.ReducedVerts,
			r.PlainBytes, r.ReducedBytes,
			r.PlainMaxCyc, r.ReducedCyc,
			r.EstPlainROM, r.EstReducedR,
			r.Stats.TestsEliminated)
	}
	return b.String()
}
