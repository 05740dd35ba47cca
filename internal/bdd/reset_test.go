package bdd

// Reset equivalence: a manager that has run an arbitrary workload and
// been Reset must behave exactly like one fresh from New — the same
// handles, truth tables, sizes, sift orders and deterministic
// statistics for any script replayed on it — and must still agree with
// the refbdd reference kernel.

import (
	"math/rand"
	"reflect"
	"testing"

	refbdd "polis/internal/bdd/internal/refbdd"
)

// managerStats lists every statistic a manager keeps.
func managerStats(m *Manager) [11]int {
	return [...]int{m.GCs, m.Swaps, m.Hits, m.Misses, m.CacheResets, m.Evictions,
		m.PeakNodes, m.SiftPasses, m.SwapsSkipped, m.LBPrunes, m.CostEvals}
}

// replayResult is everything the fixed replay script observes.
type replayResult struct {
	handles []Node
	tables  [][]bool
	sizes   []int
	shared  []int
	order   []int
	// GCs, Swaps, PeakNodes, SiftPasses, SwapsSkipped, LBPrunes and
	// CostEvals; the op-cache counters depend on the cache's size,
	// which Reset keeps.
	stats [7]int
}

// replay runs a fixed random script with GCs and a two-pass sift on
// the empty manager m in lock-step with the reference kernel, and
// records what it observes.
func replay(t *testing.T, m *Manager, seed int64) replayResult {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := newDiffPair(m, 6+r.Intn(4))
	p.randomSteps(t, r, seed, 60)
	m.Sift(SiftOptions{Passes: 2})
	p.rm.Sift(refbdd.SiftOptions{Passes: 2})
	order, refOrder := p.orders()
	if !sameInts(order, refOrder) {
		t.Fatalf("replay %d: sift orders diverge: live %v, reference %v", seed, order, refOrder)
	}
	for i := range p.live {
		p.check(t, i, "replay post-sift")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("replay %d: invariants: %v", seed, err)
	}
	res := replayResult{handles: append([]Node(nil), p.live...), order: order}
	for _, f := range p.live {
		tt := make([]bool, 1<<len(p.vs))
		for a := range tt {
			tt[a] = m.Eval(f, func(v Var) bool { return a&(1<<int(v)) != 0 })
		}
		res.tables = append(res.tables, tt)
		res.sizes = append(res.sizes, m.Size(f))
		res.shared = append(res.shared, m.SharedSize(f))
	}
	res.stats = [...]int{m.GCs, m.Swaps, m.PeakNodes, m.SiftPasses, m.SwapsSkipped, m.LBPrunes, m.CostEvals}
	return res
}

// dirty runs a random workload on m and then builds and sifts the
// pairing function OR_i (x_i AND y_i) with every x above every y — an
// exponential order sifting repairs, with automatic collections forced
// on — and applies one more operation, so m carries a grown operation
// cache with live entries, large unique tables, a populated free list
// and a lowered GC threshold into Reset.
func dirty(t *testing.T, m *Manager, seed int64) {
	t.Helper()
	m.autoGCMin = 32
	r := rand.New(rand.NewSource(seed))
	p := newDiffPair(m, 6+r.Intn(4))
	p.randomSteps(t, r, seed, 70)
	const pairs = 10
	xs := make([]Var, pairs)
	for i := range xs {
		xs[i] = m.NewVar("x")
	}
	f := False
	for i := range xs {
		f = m.Or(f, m.And(m.VarNode(xs[i]), m.VarNode(m.NewVar("y"))))
	}
	m.Protect(f)
	m.Sift(SiftOptions{Roots: []Node{f}})
	m.Protect(m.Exists(m.Xor(f, m.VarNode(xs[0])), xs[1:]...))
	if len(m.cache) <= cacheMinSize {
		t.Fatalf("seed %d: workload left the op cache at its minimum size %d", seed, len(m.cache))
	}
}

func TestResetMatchesFresh(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	m := New()
	fresh := managerStats(New())
	for trial := 0; trial < trials; trial++ {
		dirty(t, m, int64(5100+trial))
		cache := len(m.cache)
		m.Reset()
		if m.NumNodes() != 1 || m.NumVars() != 0 || len(m.roots) != 0 {
			t.Fatalf("trial %d: after Reset: %d nodes, %d vars, %d roots; want 1, 0, 0",
				trial, m.NumNodes(), m.NumVars(), len(m.roots))
		}
		if got := managerStats(m); got != fresh {
			t.Fatalf("trial %d: statistics after Reset %v, want %v", trial, got, fresh)
		}
		if m.liveAfterGC != 1 || m.autoGCMin != defaultAutoGCMin {
			t.Fatalf("trial %d: GC thresholds after Reset: liveAfterGC %d, autoGCMin %d",
				trial, m.liveAfterGC, m.autoGCMin)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: invariants after Reset: %v", trial, err)
		}
		for i, e := range m.cache {
			if e.op != opNone && e.gen == m.cacheGen {
				t.Fatalf("trial %d: op-cache entry %d still live after Reset", trial, i)
			}
		}
		pooled := 0
		for _, b := range m.slots {
			pooled += len(b)
		}
		if len(m.cache) != cache || cap(m.nodes) <= 1 || pooled == 0 {
			t.Fatalf("trial %d: Reset dropped storage: cache %d (was %d), arena cap %d, %d pooled slot arrays",
				trial, len(m.cache), cache, cap(m.nodes), pooled)
		}
		seed := int64(7300 + trial)
		got := replay(t, m, seed)
		want := replay(t, New(), seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reset manager diverges from a fresh one:\nreset %+v\nfresh %+v", trial, got, want)
		}
		m.Reset()
	}
}
