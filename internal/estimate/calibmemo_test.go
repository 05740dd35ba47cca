package estimate_test

import (
	"testing"

	"polis"
	"polis/internal/esterel"
	"polis/internal/estimate"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

const blink = `
module blink:
input tick;
output led : integer;
var on : integer in
loop
  await tick;
  if on = 0 then on := 1; else on := 0; end if
  emit led(on);
end loop
end var
end module
`

// TestDefaultTargetCalibratesOnce checks that flows leaving the target
// unset share one default profile, so CalibrateCached, which is keyed
// by the profile pointer, calibrates it once rather than keeping a
// memo entry per module or run: repeated nil-Target synthesis through
// the pipeline and the top-level API, and co-simulation without a
// profile, must not grow the memo.
func TestDefaultTargetCalibratesOnce(t *testing.T) {
	net, _, err := esterel.CompileProgram(blink)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Machines[0]
	synth := func() {
		if _, err := pipeline.SynthesizeModule(m, pipeline.Options{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	synth()
	if _, err := estimate.CalibrateCached(vm.DefaultHC11()); err != nil {
		t.Fatal(err)
	}
	before := estimate.CalibMemoLen()
	for i := 0; i < 5; i++ {
		synth()
		if _, err := polis.Synthesize(m, polis.Options{}); err != nil {
			t.Fatal(err)
		}
		stim := []sim.Stimulus{{Time: 10, Signal: m.Inputs[0]}, {Time: 20, Signal: m.Inputs[0]}}
		if _, err := sim.Run(net, stim, 100, sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact}); err != nil {
			t.Fatal(err)
		}
	}
	if after := estimate.CalibMemoLen(); after != before {
		t.Errorf("calibration memo grew from %d to %d entries over repeated default-target runs", before, after)
	}
}
