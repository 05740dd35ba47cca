package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"polis"
	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// TestSimRunsCompiledCode pins the simulator to the compiler: for
// the dashboard and seeded random networks under every combination of mode, reduction,
// target and copy optimisation (plus one captured specialization
// profile), the footprint BuildVMTask and sim.Run charge must be the
// one polis.SynthesizeNetwork reports for the same options. VMExact
// runs the emitted object code, so it charges the measured code size
// and the program's data size; Behavioral charges the estimate.
func TestSimRunsCompiledCode(t *testing.T) {
	type netCase struct {
		name string
		net  *cfsm.Network
		spec *profile.Profile
	}
	// The dashboard's timer declares exclusive predicates, so the
	// reduction engine changes its graph; random modules come out of
	// the BDD build already reduced.
	cases := []netCase{{name: "dashboard", net: designs.NewDashboard().Net}}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		topo := []randcfsm.Topology{randcfsm.TopoChain, randcfsm.TopoDAG}[seed%2]
		net, _, err := randcfsm.NewTopologyNetwork(r, 3, randcfsm.DefaultConfig(), topo)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, netCase{name: fmt.Sprintf("seed%d", seed), net: net})
	}
	spec := cases[1]
	spec.name += "+profile"
	spec.spec = captureProfile(t, spec.net)
	cases = append(cases, spec)

	specialized := 0
	for _, c := range cases {
		for _, mode := range []sim.Mode{sim.VMExact, sim.Behavioral} {
			for _, reduce := range []bool{false, true} {
				for _, target := range []*vm.Profile{vm.HC11(), vm.R3K()} {
					for _, copies := range []bool{false, true} {
						opt := sim.Options{
							Cfg:        rtos.DefaultConfig(),
							Mode:       mode,
							Profile:    target,
							Codegen:    codegen.Options{OptimizeCopies: copies},
							Reduce:     reduce,
							Specialize: c.spec,
						}
						label := fmt.Sprintf("%s mode=%d reduce=%v target=%s copies=%v",
							c.name, mode, reduce, target.Name, copies)
						specialized += checkSimFootprint(t, label, c.net, opt)
					}
				}
			}
		}
	}
	if specialized == 0 {
		t.Error("the captured profile specialized no module: the profile case checks nothing")
	}
}

// checkSimFootprint compares one configuration's simulated footprint
// against the compiler's artifacts and returns how many of those
// artifacts were specialized.
func checkSimFootprint(t *testing.T, label string, net *cfsm.Network, opt sim.Options) int {
	t.Helper()
	arts, err := polis.SynthesizeNetwork(net, polis.Options{
		Target:  opt.Profile,
		Codegen: opt.Codegen,
		Reduce:  opt.Reduce,
		Profile: opt.Specialize,
	}, pipeline.Config{Jobs: 1})
	if err != nil {
		t.Fatalf("%s: synthesize: %v", label, err)
	}
	specialized := 0
	var wantCode, wantData int64
	for i, a := range arts {
		if a.Specialized {
			specialized++
		}
		code, data := int64(a.CodeSize), int64(opt.Profile.DataSize(a.Program))
		if opt.Mode == sim.Behavioral {
			code, data = a.Estimate.CodeBytes, a.Estimate.DataBytes
		} else {
			_, gotCode, gotData, err := sim.BuildVMTask(net.Machines[i], opt)
			if err != nil {
				t.Fatalf("%s: BuildVMTask %s: %v", label, a.Module, err)
			}
			if gotCode != code || gotData != data {
				t.Errorf("%s: BuildVMTask %s charges %d/%d bytes, compiler emits %d/%d",
					label, a.Module, gotCode, gotData, code, data)
			}
		}
		wantCode += code
		wantData += data
	}
	res, err := sim.Run(net, nil, 0, opt)
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", label, err)
	}
	if res.CodeBytes != wantCode || res.DataBytes != wantData {
		t.Errorf("%s: sim.Run charges %d/%d bytes, compiler reports %d/%d",
			label, res.CodeBytes, res.DataBytes, wantCode, wantData)
	}
	return specialized
}

// captureProfile runs the network behaviourally over a seeded random
// stimulus stream with a profile collector attached.
func captureProfile(t *testing.T, net *cfsm.Network) *profile.Profile {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	prim := net.PrimaryInputs()
	var stim []sim.Stimulus
	for i := int64(1); i <= 200; i++ {
		s := prim[r.Intn(len(prim))]
		stim = append(stim, sim.Stimulus{Time: i * 5000, Signal: s, Value: r.Int63n(randcfsm.DefaultConfig().ValueRange)})
	}
	col := profile.NewCollector()
	if _, err := sim.Run(net, stim, 1_100_000, sim.Options{Cfg: rtos.DefaultConfig(), Probe: col}); err != nil {
		t.Fatal(err)
	}
	return col.Profile()
}
