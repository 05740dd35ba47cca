package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// sim-loop: cycle-exact co-simulation of a seeded TopoChain network in
// sim.VMExact mode under rtos.DefaultConfig with a long, dense stimulus
// train and checks off. The only workload that executes generated
// code: the RTOS scheduler and the VM dominate it; task build is a
// small share of each sim.Run.

const (
	// Each run cycles through simNetworks seeded networks so one run's
	// figures average over many designs, not one draw.
	simNetworks = 32
	simModules  = 32
	// A long train keeps task build a small share of each sim.Run.
	simStimuli  = 100_000 // at least this many stimuli over PrimaryInputs
	simGap      = 40      // cycles between stimuli within a round
	simRoundGap = 2000    // cycles between rounds
)

// simNet is one network of the rotation. Its stimulus train is
// regenerated from stimSeed before every run, outside the timed region,
// so the rotation does not hold every train in memory.
type simNet struct {
	net      *cfsm.Network
	stimSeed int64
	stimuli  int
	ref      simRun // the network's untimed checked run
}

func simInputs(r *rand.Rand, modules, stimuli int) (*simNet, error) {
	net, _, err := randcfsm.NewTopologyNetwork(r, modules, randcfsm.DefaultConfig(), randcfsm.TopoChain)
	if err != nil {
		return nil, err
	}
	return &simNet{net: net, stimSeed: r.Int63(), stimuli: stimuli}, nil
}

// train generates the network's dense stimulus train: rounds over the
// primary inputs, simGap cycles apart, and the horizon to run to.
func (n *simNet) train() ([]sim.Stimulus, int64) {
	r := rand.New(rand.NewSource(n.stimSeed))
	prim := n.net.PrimaryInputs()
	stim := make([]sim.Stimulus, 0, n.stimuli+len(prim))
	t := int64(100)
	for len(stim) < n.stimuli {
		for _, s := range prim {
			var v int64
			if !s.Pure {
				v = r.Int63n(randcfsm.DefaultConfig().ValueRange)
			}
			stim = append(stim, sim.Stimulus{Time: t, Signal: s, Value: v})
			t += simGap
		}
		t += simRoundGap
	}
	return stim, t + 50_000
}

func simOptions(check sim.CheckOptions) sim.Options {
	return sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact, Check: check}
}

// simRun is one sim.Run and what it produced; its work is the task
// executions.
type simRun struct {
	timedOp
	build      time.Duration
	lost, busy int64
	digest     string
	codeBytes  int64
	net        *simNet
}

// run simulates the network once; only sim.Run itself is timed.
func (n *simNet) run(check sim.CheckOptions) (simRun, error) {
	stim, horizon := n.train()
	ref := quiesce()
	before := sampleRuntime()
	c0, t0 := cpuTime(), time.Now()
	res, err := sim.Run(n.net, stim, horizon, simOptions(check))
	wall, cpu := time.Since(t0), cpuTime()-c0
	after := sampleRuntime()
	if err != nil {
		return simRun{}, err
	}
	r := simRun{timedOp: timedOp{wall: wall, cpu: cpu, alloc: before.allocMB(after), ref: ref},
		busy: res.System.BusyCycles, digest: traceDigest(res.Trace), codeBytes: res.CodeBytes}
	for _, t := range res.System.Tasks {
		r.work += t.Executions
		r.lost += t.Lost
	}
	return r, nil
}

// traceDigest hashes the event trace: time, signal, value and source
// of every event, in order.
func traceDigest(tr []rtos.TraceEvent) string {
	h := sha256.New()
	var buf []byte
	for _, e := range tr {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, e.Time, 10)
		buf = append(buf, ' ')
		buf = append(buf, e.Signal.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, e.Value, 10)
		buf = append(buf, ' ')
		buf = append(buf, e.From...)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildTasks times sim.BuildVMTask for every machine of the network,
// recording one span per machine under parent.
func (n *simNet) buildTasks(out *outcome, parent int, id string) time.Duration {
	opt := simOptions(sim.CheckOptions{})
	opt.Profile = vm.HC11()
	var total time.Duration
	for _, m := range n.net.Machines {
		t0 := time.Now()
		_, _, _, err := sim.BuildVMTask(m, opt)
		t1 := time.Now()
		if err != nil {
			out.failed++
			out.problem("%s: BuildVMTask %s: %v", id, m.Name, err)
		}
		out.spans.add(parent, "BuildVMTask "+m.Name, "probe", id, t0, t1)
		total += t1.Sub(t0)
	}
	return total
}

func runSimLoop(cfg runConfig) (*outcome, error) {
	networks, modules, stimuli := simNetworks, simModules, simStimuli
	if cfg.small {
		networks, modules, stimuli = 2, 8, 2000
	}
	out := newOutcome()
	nets, setupS, err := setupTimes(func() ([]*simNet, error) {
		r := rand.New(rand.NewSource(cfg.seed))
		var nets []*simNet
		for k := 0; k < networks; k++ {
			n, err := simInputs(r, modules, stimuli)
			if err != nil {
				return nil, err
			}
			nets = append(nets, n)
		}
		if _, err := nets[0].run(sim.CheckOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		return nets, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{setupS, "s"}

	// The timed loop: one sim.Run per iteration, in whole cycles
	// through the networks, so every network weighs the same in the
	// figures. A traced run follows each untraced run with a traced
	// run of the same network: BuildVMTask per machine as a probe, then sim.Run
	// as a whole, so host drift and the network mix cancel out of the
	// overhead.
	simulate := func(n *simNet, traced bool) (simRun, bool) {
		out.attempted++
		id := fmt.Sprintf("sim%d", out.attempted)
		var build time.Duration
		if traced {
			b0 := time.Now()
			probe := out.spans.add(0, "BuildVMTask per machine", "probe", id, b0, b0)
			build = n.buildTasks(out, probe, id)
			out.spans.extend(probe, time.Now())
		}
		r, err := n.run(sim.CheckOptions{})
		if err != nil {
			out.failed++
			out.problem("%s: %v", id, err)
			return simRun{}, false
		}
		r.net = n
		if traced {
			// sim.Run builds its tasks again before the loop; the
			// build share inside it is estimated by the separately
			// timed BuildVMTask calls.
			r1 := time.Now()
			r0 := r1.Add(-r.wall)
			runSpan := out.spans.add(0, "sim.Run", "sim.loop", id, r0, r1)
			out.spans.add(runSpan, "task build (est. from BuildVMTask)", "sim.build", id, r0, r0.Add(min(build, r.wall)))
			r.build = build
		}
		return r, true
	}
	var runs, traced []simRun
	rtA := sampleRuntime()
	cycles(cfg.window, func() {
		for _, n := range nets {
			if r, ok := simulate(n, false); ok {
				runs = append(runs, r)
			}
			if cfg.traced {
				if r, ok := simulate(n, true); ok {
					traced = append(traced, r)
				}
			}
		}
	})
	rtB := sampleRuntime()
	if len(runs) == 0 {
		return nil, fmt.Errorf("no successful simulation run")
	}

	// Checks, outside the timed regions: per network, one run with the
	// VM checked against the reference interpreter and the cycle
	// bounds on; every timed run must reproduce its trace, executions
	// and busy cycles exactly.
	err = parallel(len(nets), func(i int) error {
		ref, err := nets[i].run(sim.CheckOptions{VMAgainstReference: true, CycleBounds: true})
		nets[i].ref = ref
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("checked run: %w", err)
	}
	var busy, execs, lost, codeBytes int64
	for _, n := range nets {
		ref := n.ref
		busy += ref.busy
		execs += ref.work
		lost += ref.lost
		codeBytes += ref.codeBytes
	}
	for i, r := range append(runs, traced...) {
		n := r.net
		if r.digest != n.ref.digest || r.busy != n.ref.busy || r.work != n.ref.work {
			out.failed++
			out.problem("run %d: trace %.12s / %d busy cycles differ from the checked run's %.12s / %d",
				i+1, r.digest, r.busy, n.ref.digest, n.ref.busy)
		}
	}

	sum := summarize(timedOps(runs))
	reactionsPerS := sum.perS
	cyclesPerReaction := float64(busy) / float64(max(execs, 1))
	out.name("sim.reactions_per_s", reactionsPerS, "1/s")
	out.name("sim.cycles_per_reaction", cyclesPerReaction, "cyc")
	out.name("sim.run_p50_ms", sum.p50, "ms")
	out.name("sim.run_p90_ms", sum.p90, "ms")
	out.name("sim.run_cpu_ms", sum.cpuMs, "ms")
	out.name("sim.alloc_mb", sum.allocMB, "MB")
	out.name("sim.runs", float64(len(runs)), "count")
	out.name("sim.networks", float64(len(nets)), "count")
	out.name("sim.code_bytes", float64(codeBytes), "B")
	out.addTimeMetrics(sum.cpuMs, refsOf(timedOps(runs)))
	out.e2e["alloc_mb"] = metric{sum.allocMB, "MB"}
	out.e2e["ok_pct"] = metric{okPct(out), "%"}

	if cfg.traced {
		var builds, loops []float64
		for _, r := range traced {
			builds = append(builds, ms(r.build))
			loops = append(loops, ms(r.wall-r.build))
		}
		tracedPerS := summarize(timedOps(traced)).perS
		nn := float64(len(nets))
		out.name("sim.build_ms", median(builds), "ms")
		out.name("sim.loop_ms", median(loops), "ms")
		out.layers["rtos.executions"] = metric{float64(execs) / nn, "count"}
		out.layers["rtos.lost"] = metric{float64(lost) / nn, "count"}
		out.layers["vm.busy_cycles"] = metric{float64(busy) / nn, "count"}
		lt := newLayerTrace(nil)
		var graphs []*pipeline.Artifact
		for _, n := range nets {
			arts, err := buildLayers(n.net, lt)
			if err != nil {
				return nil, fmt.Errorf("task build replay: %w", err)
			}
			graphs = append(graphs, arts...)
		}
		lt.addLayerMetrics(out, nn)
		addGraphLayers(out, graphs, nn)
		addIdleLayers(out, "pipeline", "polisd")
		addRuntimeLayers(out, rtA, rtB, float64(len(runs)+len(traced)))
		out.layers["trace.overhead_pct"] = metric{overheadPct(1/reactionsPerS, 1/tracedPerS), "%"}
		out.name("trace.reactions_per_s", tracedPerS, "1/s")
		addShares(out)
	}
	return out, nil
}

// buildLayers times, per machine, the synthesis steps sim.BuildVMTask
// runs with the workload's options (checks off, no reduction):
// cfsm.BuildReactive, sgraph.ApplyOrdering, sgraph.FromChi and
// codegen.Assemble, and feeds them to lt as pipeline stage and BDD
// events. Estimation, C emission and cycle analysis do not run in a
// task build, so those layers read zero on sim-loop. The returned
// artifacts carry only the s-graph statistics.
func buildLayers(net *cfsm.Network, lt *layerTrace) ([]*pipeline.Artifact, error) {
	opt := simOptions(sim.CheckOptions{})
	var arts []*pipeline.Artifact
	for _, m := range net.Machines {
		stage := func(s pipeline.Stage, t0 time.Time) {
			lt.Event(pipeline.Event{Kind: pipeline.EvStage, Module: m.Name, Stage: s, Duration: time.Since(t0)})
		}
		t0 := time.Now()
		r, err := cfsm.BuildReactive(m)
		if err != nil {
			return nil, err
		}
		stage(pipeline.StageReactive, t0)
		t0 = time.Now()
		if err := sgraph.ApplyOrdering(r, opt.Ordering); err != nil {
			return nil, err
		}
		stage(pipeline.StageSift, t0)
		t0 = time.Now()
		g, err := sgraph.FromChi(r)
		if err != nil {
			return nil, err
		}
		stage(pipeline.StageSGraph, t0)
		t0 = time.Now()
		if _, err := codegen.Assemble(g, codegen.NewSignalMap(m), opt.Codegen); err != nil {
			return nil, err
		}
		stage(pipeline.StageCodegen, t0)
		mgr := r.Space.M
		lt.Event(pipeline.Event{Kind: pipeline.EvBDD, Module: m.Name, PeakNodes: mgr.PeakNodes,
			SiftSwaps: mgr.Swaps, CacheHits: mgr.Hits, CacheMisses: mgr.Misses})
		arts = append(arts, &pipeline.Artifact{Stats: g.ComputeStats()})
	}
	return arts, nil
}

func timedOps(runs []simRun) []timedOp {
	ops := make([]timedOp, len(runs))
	for i, r := range runs {
		ops[i] = r.timedOp
	}
	return ops
}
