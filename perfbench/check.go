package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/vm"
)

// snapHost serves one frozen snapshot to a vm.Machine and records the
// routine's emissions.
type snapHost struct {
	byID    []*cfsm.Signal
	snap    cfsm.Snapshot
	emitted []cfsm.Emission
}

func (h *snapHost) Present(sig int) bool { return h.snap.Present[h.byID[sig]] }
func (h *snapHost) Value(sig int) int64  { return h.snap.Values[h.byID[sig]] }
func (h *snapHost) Emit(sig int) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig]})
}
func (h *snapHost) EmitValue(sig int, v int64) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig], Value: v})
}

// randomSnapshot draws inputs and state for the machine from r (not
// from the machine's own generator, so checks never perturb inputs).
func randomSnapshot(r *rand.Rand, m *randcfsm.Machine) cfsm.Snapshot {
	snap := m.C.NewSnapshot()
	for _, in := range m.C.Inputs {
		snap.Present[in] = r.Intn(2) == 1
		if !in.Pure {
			snap.Values[in] = r.Int63n(m.Range)
		}
	}
	for _, sv := range m.C.States {
		if sv.Domain > 0 {
			snap.State[sv] = int64(r.Intn(sv.Domain))
		} else {
			snap.State[sv] = r.Int63n(m.Range)
		}
	}
	return snap
}

// checkProgram runs the artifact's object code on snaps seeded
// snapshots and compares emissions and next state with the reference
// interpreter (*cfsm.CFSM).React.
func checkProgram(r *rand.Rand, m *randcfsm.Machine, a *pipeline.Artifact, prof *vm.Profile, snaps int) error {
	c := m.C
	sigs := codegen.NewSignalMap(c)
	byID := make([]*cfsm.Signal, len(sigs))
	for s, id := range sigs {
		byID[id] = s
	}
	for i := 0; i < snaps; i++ {
		snap := randomSnapshot(r, m)
		want := c.React(snap)
		h := &snapHost{byID: byID, snap: snap}
		mach := vm.NewMachine(prof, a.Program.Words, h)
		for _, sv := range c.States {
			if addr, ok := a.Program.Symbols["st_"+sv.Name]; ok {
				mach.Mem[addr] = snap.State[sv]
			}
		}
		if _, err := mach.Run(a.Program, codegen.EntryLabel(c)); err != nil {
			return fmt.Errorf("%s: vm: %w", c.Name, err)
		}
		if got, exp := emissionKey(h.emitted), emissionKey(want.Emitted); got != exp {
			return fmt.Errorf("%s: snapshot %d: vm emits %s, reference %s", c.Name, i, got, exp)
		}
		for _, sv := range c.States {
			got := snap.State[sv]
			if addr, ok := a.Program.Symbols["st_"+sv.Name]; ok {
				got = mach.Mem[addr]
			}
			if got != want.NextState[sv] {
				return fmt.Errorf("%s: snapshot %d: vm next %s=%d, reference %d",
					c.Name, i, sv.Name, got, want.NextState[sv])
			}
		}
	}
	return nil
}

// emissionKey renders an emission multiset in a canonical order.
func emissionKey(ems []cfsm.Emission) string {
	keys := make([]string, len(ems))
	for i, e := range ems {
		v := e.Value
		if e.Signal.Pure {
			v = 0
		}
		keys[i] = e.Signal.Name + "=" + strconv.FormatInt(v, 10)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, ",") + "}"
}

// artifactDigest hashes everything a compile emits per module: C,
// listing, measured size and cycles, and the estimate.
func artifactDigest(arts []*pipeline.Artifact) string {
	h := sha256.New()
	for _, a := range arts {
		fmt.Fprintf(h, "%s\n%s\n%s\n%d %d %d %d %d\n", a.Module, a.C, a.Listing,
			a.CodeSize, a.Measured.Min, a.Measured.Max, a.Estimate.MaxCycles, a.Estimate.CodeBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}
