package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"polis"
	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/vm"
)

// synth-cold: cold compile of a whole network. Each iteration compiles
// every module through polis.SynthesizeNetwork with a fresh in-memory
// cache, so BDD, sifting, s-graph and codegen do the work and the
// cache only takes writes.

const (
	// Each run cycles through synthNetworks seeded networks so one
	// run's figures average over many designs, not one draw.
	synthNetworks  = 16
	synthModules   = 300 // a few hundred modules per network
	synthScaledPct = 12  // exactly this share is drawn at Scaled(2..3)
	synthSnapshots = 8   // VM-vs-reference snapshots per module
)

// synthNet is one network of the rotation.
type synthNet struct {
	net      *cfsm.Network
	machines []*randcfsm.Machine
	// From the network's first timed compile, after its checks:
	digest              string
	codeBytes, wcet     int64
	estErrSum           float64 // Σ |estimate − measured| / measured
	vertices, testsElim int
	arts                []*pipeline.Artifact // kept for network 0 only
}

type synthState struct {
	nets []*synthNet
	opt  polis.Options
}

// synthInputs builds one seeded network: DefaultConfig modules with a
// fixed-size minority at Scaled(2) and Scaled(3) in seeded positions,
// so every network has the same size mix.
func synthInputs(r *rand.Rand, name string, modules int) (*synthNet, error) {
	scaled := modules * synthScaledPct / 100
	if scaled < 2 {
		scaled = 2
	}
	factor := make([]int, modules)
	for k, i := range r.Perm(modules)[:scaled] {
		factor[i] = 2 + k%2
	}
	net := cfsm.NewNetwork(name)
	machines := make([]*randcfsm.Machine, modules)
	for i := range machines {
		cfg := randcfsm.DefaultConfig()
		if factor[i] > 0 {
			cfg = randcfsm.Scaled(factor[i])
		}
		m, err := randcfsm.NewInNetwork(r, net, fmt.Sprintf("m%03d", i), cfg)
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &synthNet{net: net, machines: machines}, nil
}

func (s *synthState) compile(n *synthNet, jobs int, tr pipeline.Trace) ([]*pipeline.Artifact, error) {
	cache, err := pipeline.NewCache("")
	if err != nil {
		return nil, err
	}
	return polis.SynthesizeNetwork(n.net, s.opt, pipeline.Config{Jobs: jobs, Cache: cache, Trace: tr})
}

// firstCompile runs the output checks on a network's first compile:
// every emitted program must match the reference interpreter on
// seeded snapshots. It records the digest later compiles must repeat
// and the network's exact size and cycle figures.
func (n *synthNet) firstCompile(out *outcome, r *rand.Rand, prof *vm.Profile, arts []*pipeline.Artifact, keep bool) {
	n.digest = artifactDigest(arts)
	bad := false
	for i, a := range arts {
		if err := checkProgram(r, n.machines[i], a, prof, synthSnapshots); err != nil {
			bad = true
			out.problem("%s: vm check: %v", n.net.Name, err)
		}
		n.codeBytes += int64(a.CodeSize)
		n.wcet += a.Measured.Max
		if a.Measured.Max > 0 {
			n.estErrSum += math.Abs(float64(a.Estimate.MaxCycles-a.Measured.Max)) / float64(a.Measured.Max)
		}
		n.vertices += a.Stats.Vertices
		n.testsElim += a.Reduce.TestsEliminated
	}
	if bad {
		out.failed++
	}
	if keep {
		n.arts = arts
	}
}

func runSynthCold(cfg runConfig) (*outcome, error) {
	networks, modules := synthNetworks, synthModules
	if cfg.small {
		networks, modules = 2, 24
	}
	out := newOutcome()
	st, setupS, err := setupTimes(func() (*synthState, error) {
		r := rand.New(rand.NewSource(cfg.seed))
		// One target profile per process: its calibration is paid by
		// the warm-up compile, as a long-lived compiler would pay it.
		s := &synthState{opt: polis.Options{Reduce: true, Target: vm.HC11()}}
		for k := 0; k < networks; k++ {
			n, err := synthInputs(r, fmt.Sprintf("cold%02d", k), modules)
			if err != nil {
				return nil, err
			}
			s.nets = append(s.nets, n)
		}
		if _, err := s.compile(s.nets[0], nproc, nil); err != nil {
			return nil, fmt.Errorf("warm-up compile: %w", err)
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{setupS, "s"}

	// The timed loop: whole-network compiles, in whole cycles through
	// the networks, so every network weighs the same in the figures. A
	// traced run follows each untraced compile with a traced compile of
	// the same network, so host drift and the network mix cancel out of
	// the overhead.
	rc := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	compile := func(n *synthNet, tr *layerTrace) (timedOp, bool) {
		out.attempted++
		run := fmt.Sprintf("compile%d", out.attempted)
		var trace pipeline.Trace
		var root int
		ref := quiesce()
		before := sampleRuntime()
		c0, t0 := cpuTime(), time.Now()
		if tr != nil {
			root = out.spans.add(0, "network "+n.net.Name, "pipeline", run, t0, t0)
			tr.begin(root, run)
			trace = tr
		}
		arts, err := st.compile(n, nproc, trace)
		wall, cpu := time.Since(t0), cpuTime()-c0
		after := sampleRuntime()
		if tr != nil {
			out.spans.extend(root, t0.Add(wall))
		}
		if err != nil {
			out.failed++
			out.problem("%s: %s: %v", run, n.net.Name, err)
			return timedOp{}, false
		}
		// Checks, outside the timed region.
		if n.digest == "" {
			n.firstCompile(out, rc, st.opt.Target, arts, n == st.nets[0])
		} else if d := artifactDigest(arts); d != n.digest {
			out.failed++
			out.problem("%s: %s: artifact digest %.12s differs from the first compile's %.12s", run, n.net.Name, d, n.digest)
		}
		return timedOp{work: int64(len(arts)), wall: wall, cpu: cpu, alloc: before.allocMB(after), ref: ref}, true
	}
	var runs, traced []timedOp
	var lt *layerTrace
	if cfg.traced {
		lt = newLayerTrace(out.spans)
	}
	rtA := sampleRuntime()
	cycles(cfg.window, func() {
		for _, n := range st.nets {
			if op, ok := compile(n, nil); ok {
				runs = append(runs, op)
			}
			if cfg.traced {
				if op, ok := compile(n, lt); ok {
					traced = append(traced, op)
				}
			}
		}
	})
	rtB := sampleRuntime()
	if len(runs) == 0 {
		return nil, fmt.Errorf("no successful compile")
	}

	// A Jobs=1 compile of every network must emit the same C, listings
	// and measurements as its timed Jobs=nproc compiles.
	serial := make([]string, len(st.nets))
	err = parallel(len(st.nets), func(i int) error {
		arts, err := st.compile(st.nets[i], 1, nil)
		if err != nil {
			return fmt.Errorf("Jobs=1 compile of %s: %w", st.nets[i].net.Name, err)
		}
		serial[i] = artifactDigest(arts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var codeBytes, wcet int64
	var estErrSum float64
	var vertices, testsElim, allModules int
	for i, n := range st.nets {
		if d := serial[i]; d != n.digest {
			out.failed++
			out.problem("%s: Jobs=1 digest %.12s differs from the Jobs=%d compile's %.12s", n.net.Name, d, nproc, n.digest)
		}
		codeBytes += n.codeBytes
		wcet += n.wcet
		estErrSum += n.estErrSum
		vertices += n.vertices
		testsElim += n.testsElim
		allModules += len(n.machines)
	}

	sum := summarize(runs)
	modulesPerS := sum.perS
	estErr := 100 * estErrSum / float64(allModules)
	out.name("synth.modules_per_s", modulesPerS, "1/s")
	out.name("synth.alloc_mb", sum.allocMB, "MB")
	out.name("synth.code_bytes", float64(codeBytes), "B")
	out.name("synth.wcet_cycles", float64(wcet), "cyc")
	out.name("synth.est_err_pct", estErr, "%")
	out.name("synth.network_p50_ms", sum.p50, "ms")
	out.name("synth.network_p90_ms", sum.p90, "ms")
	out.name("synth.network_cpu_ms", sum.cpuMs, "ms")
	out.name("synth.compiles", float64(len(runs)), "count")
	out.name("synth.networks", float64(len(st.nets)), "count")
	out.name("synth.modules", float64(allModules), "count")
	out.addTimeMetrics(sum.cpuMs, refsOf(runs))
	out.e2e["alloc_mb"] = metric{sum.allocMB, "MB"}
	out.e2e["ok_pct"] = metric{okPct(out), "%"}

	if cfg.traced {
		tracedPerS := summarize(traced).perS
		ops := float64(len(traced))
		lt.addLayerMetrics(out, ops)
		nets := float64(len(st.nets))
		out.layers["sgraph.vertices"] = metric{float64(vertices) / nets, "count"}
		out.layers["sgraph.tests_eliminated"] = metric{float64(testsElim) / nets, "count"}
		out.layers["pipeline.busy_pct"] = metric{lt.busyPct(), "%"}
		out.layers["pipeline.hit_pct"] = metric{lt.hitPct(), "%"}
		n0 := st.nets[0]
		replayWritePath(out, n0.net, n0.arts, pipeline.Options{
			Ordering: st.opt.Ordering, Target: st.opt.Target, Reduce: st.opt.Reduce})
		addIdleLayers(out, "polisd", "sim")
		addRuntimeLayers(out, rtA, rtB, float64(len(runs)+len(traced)))
		out.layers["trace.overhead_pct"] = metric{overheadPct(1/modulesPerS, 1/tracedPerS), "%"}
		out.name("trace.modules_per_s", tracedPerS, "1/s")
		addShares(out)
	}
	return out, nil
}
