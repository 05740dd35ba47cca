package bdd

// Differential gate for the complement-edge rewrite: the live kernel
// is driven in lock-step with internal/refbdd — a verbatim snapshot of
// the pre-change kernel (two physical terminals, materialised NOT) —
// through identical randomized operation scripts, machine-style
// characteristic-function builds, and sifting. The two kernels must
// agree on every function's truth table, on the classical node count
// Size reports, on String renderings, and on every final sift order.

import (
	"math/rand"
	"testing"

	refbdd "polis/internal/bdd/internal/refbdd"
)

// diffPair drives the live and reference kernels in lock-step: index i
// of live and ref always denotes the same Boolean function.
type diffPair struct {
	m    *Manager
	rm   *refbdd.Manager
	vs   []Var
	rvs  []refbdd.Var
	live []Node
	ref  []refbdd.Node
}

// newDiffPair starts a pair over m, which must be empty (fresh from
// New or just Reset), and a fresh reference kernel.
func newDiffPair(m *Manager, nvars int) *diffPair {
	p := &diffPair{m: m, rm: refbdd.New()}
	for i := 0; i < nvars; i++ {
		name := string(rune('a' + i))
		p.vs = append(p.vs, p.m.NewVar(name))
		p.rvs = append(p.rvs, p.rm.NewVar(name))
	}
	p.push(False, refbdd.False)
	p.push(True, refbdd.True)
	for i := range p.vs {
		p.push(p.m.VarNode(p.vs[i]), p.rm.VarNode(p.rvs[i]))
	}
	return p
}

// push registers a matched pair, protecting both sides so GC and
// sifting inside either kernel never invalidate a tracked handle.
func (p *diffPair) push(f Node, rf refbdd.Node) int {
	p.m.Protect(f)
	p.rm.Protect(rf)
	p.live = append(p.live, f)
	p.ref = append(p.ref, rf)
	return len(p.live) - 1
}

// check compares pair i across the kernels: identical truth table over
// every assignment, identical classical Size, identical rendering.
func (p *diffPair) check(t *testing.T, i int, where string) {
	t.Helper()
	f, rf := p.live[i], p.ref[i]
	for a := 0; a < 1<<len(p.vs); a++ {
		got := p.m.Eval(f, func(v Var) bool { return a&(1<<int(v)) != 0 })
		want := p.rm.Eval(rf, func(v refbdd.Var) bool { return a&(1<<int(v)) != 0 })
		if got != want {
			t.Fatalf("%s: pair %d disagrees at assignment %b: live %v, reference %v",
				where, i, a, got, want)
		}
	}
	if got, want := p.m.Size(f), p.rm.Size(rf); got != want {
		t.Fatalf("%s: pair %d classical size: live %d, reference %d", where, i, got, want)
	}
	if got, want := p.m.String(f), p.rm.String(rf); got != want {
		t.Fatalf("%s: pair %d rendering:\nlive      %s\nreference %s", where, i, got, want)
	}
}

// orders returns both kernels' variable orders as plain ints.
func (p *diffPair) orders() (a, b []int) {
	for _, v := range p.m.Order() {
		a = append(a, int(v))
	}
	for _, v := range p.rm.Order() {
		b = append(b, int(v))
	}
	return
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomSteps applies steps random operations — every public
// connective, quantification, cofactoring, Intersects, and a GC every
// 17 steps — to both kernels, checking every result.
func (p *diffPair) randomSteps(t *testing.T, r *rand.Rand, seed int64, steps int) {
	t.Helper()
	pick := func() int { return r.Intn(len(p.live)) }
	for step := 0; step < steps; step++ {
		i, j, k := pick(), pick(), pick()
		var idx int
		switch op := r.Intn(10); op {
		case 0:
			idx = p.push(p.m.Not(p.live[i]), p.rm.Not(p.ref[i]))
		case 1:
			idx = p.push(p.m.And(p.live[i], p.live[j]), p.rm.And(p.ref[i], p.ref[j]))
		case 2:
			idx = p.push(p.m.Or(p.live[i], p.live[j]), p.rm.Or(p.ref[i], p.ref[j]))
		case 3:
			idx = p.push(p.m.Xor(p.live[i], p.live[j]), p.rm.Xor(p.ref[i], p.ref[j]))
		case 4:
			idx = p.push(p.m.Xnor(p.live[i], p.live[j]), p.rm.Xnor(p.ref[i], p.ref[j]))
		case 5:
			idx = p.push(p.m.Ite(p.live[i], p.live[j], p.live[k]),
				p.rm.Ite(p.ref[i], p.ref[j], p.ref[k]))
		case 6:
			idx = p.push(p.m.Implies(p.live[i], p.live[j]), p.rm.Implies(p.ref[i], p.ref[j]))
		case 7:
			v := r.Intn(len(p.vs))
			val := r.Intn(2) == 1
			idx = p.push(p.m.Cofactor(p.live[i], p.vs[v], val),
				p.rm.Cofactor(p.ref[i], p.rvs[v], val))
		case 8:
			n := 1 + r.Intn(3)
			vs := make([]Var, n)
			rvs := make([]refbdd.Var, n)
			for q := 0; q < n; q++ {
				w := r.Intn(len(p.vs))
				vs[q], rvs[q] = p.vs[w], p.rvs[w]
			}
			idx = p.push(p.m.Exists(p.live[i], vs...), p.rm.Exists(p.ref[i], rvs...))
		default:
			if got, want := p.m.Intersects(p.live[i], p.live[j]),
				p.rm.Intersects(p.ref[i], p.ref[j]); got != want {
				t.Fatalf("seed %d step %d: Intersects(%d,%d): live %v, reference %v",
					seed, step, i, j, got, want)
			}
			continue
		}
		p.check(t, idx, "op result")
		if step%17 == 11 {
			p.m.GC()
			p.rm.GC()
		}
	}
}

// TestDifferentialVsReference runs randomized operation scripts —
// every public connective, quantification, cofactoring, GC, and
// sifting — against the pre-change kernel snapshot.
func TestDifferentialVsReference(t *testing.T) {
	trials, steps := 40, 70
	if testing.Short() {
		trials, steps = 8, 40
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(9200 + trial)
		r := rand.New(rand.NewSource(seed))
		p := newDiffPair(New(), 6+r.Intn(4))
		p.randomSteps(t, r, seed, steps)
		if err := p.m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: live kernel invariants: %v", seed, err)
		}
		if err := p.rm.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: reference kernel invariants: %v", seed, err)
		}
		// Sift both and require identical final orders; all tracked
		// pairs must still denote the same functions afterwards.
		p.m.Sift(SiftOptions{Passes: 1 + r.Intn(2)})
		p.rm.Sift(refbdd.SiftOptions{Passes: p.m.SiftPasses})
		if a, b := p.orders(); !sameInts(a, b) {
			t.Fatalf("seed %d: sift orders diverge: live %v, reference %v", seed, a, b)
		}
		for i := range p.live {
			p.check(t, i, "post-sift")
		}
	}
}

// TestDifferentialCharFn builds machine-style characteristic functions
// — chi = AND_i xnor(o_i, f_i(state, inputs)), the shape the synthesis
// flow feeds the kernel — in both kernels, then sifts with chi as the
// cost root, mirroring how POLIS optimises the characteristic function
// alone. Orders, classical sizes, and truth tables must agree.
func TestDifferentialCharFn(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(4400 + trial)
		r := rand.New(rand.NewSource(seed))
		nin := 4 + r.Intn(3)  // state+input bits
		nout := 2 + r.Intn(3) // output bits
		p := newDiffPair(New(), nin+nout)
		inIdx := make([]int, nin) // pair indices of the input literals
		for i := 0; i < nin; i++ {
			inIdx[i] = 2 + i // after False, True
		}
		chi, rchi := True, refbdd.True
		for o := 0; o < nout; o++ {
			// Random function over the input literals, built the same
			// way on both sides.
			w := inIdx[r.Intn(nin)]
			f, rf := p.live[w], p.ref[w]
			for d := 0; d < 3+r.Intn(4); d++ {
				w = inIdx[r.Intn(nin)]
				g, rg := p.live[w], p.ref[w]
				switch r.Intn(3) {
				case 0:
					f, rf = p.m.And(f, g), p.rm.And(rf, rg)
				case 1:
					f, rf = p.m.Or(f, g), p.rm.Or(rf, rg)
				default:
					f, rf = p.m.Xor(f, g), p.rm.Xor(rf, rg)
				}
				if r.Intn(3) == 0 {
					f, rf = p.m.Not(f), p.rm.Not(rf)
				}
			}
			ov, rov := p.vs[nin+o], p.rvs[nin+o]
			chi = p.m.And(chi, p.m.Xnor(p.m.VarNode(ov), f))
			rchi = p.rm.And(rchi, p.rm.Xnor(p.rm.VarNode(rov), rf))
		}
		idx := p.push(chi, rchi)
		p.check(t, idx, "characteristic function")
		// The characteristic function pairs every output literal with
		// its complement — exactly where complement-edge sharing pays.
		// SharedSize must never exceed the classical count.
		if ss, cs := p.m.SharedSize(chi), p.m.Size(chi); ss > cs {
			t.Fatalf("seed %d: SharedSize %d exceeds classical Size %d", seed, ss, cs)
		}
		p.m.Sift(SiftOptions{Roots: []Node{chi}})
		p.rm.Sift(refbdd.SiftOptions{Roots: []refbdd.Node{rchi}})
		if a, b := p.orders(); !sameInts(a, b) {
			t.Fatalf("seed %d: char-fn sift orders diverge: live %v, reference %v", seed, a, b)
		}
		if got, want := p.m.Size(chi), p.rm.Size(rchi); got != want {
			t.Fatalf("seed %d: post-sift classical size: live %d, reference %d", seed, got, want)
		}
		p.check(t, idx, "post-sift characteristic function")
	}
}
