package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// mapCopies is the straightforward write-before-read analysis
// AnalyzeCopies must agree with: a DFS carrying the written set as a
// map, visiting each vertex once per distinct written sequence.
func mapCopies(g *sgraph.SGraph) *CopyPlan {
	p := &CopyPlan{
		Read:      make(map[*cfsm.StateVar]bool),
		NeedCopy:  make(map[*cfsm.StateVar]bool),
		ValueRead: make(map[*cfsm.Signal]bool),
	}
	byName := make(map[string]*cfsm.StateVar)
	for _, sv := range g.C.States {
		byName[sv.Name] = sv
	}
	sigByName := make(map[string]*cfsm.Signal)
	for _, s := range g.C.Inputs {
		sigByName[s.Name] = s
	}
	read := func(sv *cfsm.StateVar, written map[*cfsm.StateVar]bool) {
		p.Read[sv] = true
		if written[sv] {
			p.NeedCopy[sv] = true
		}
	}
	noteReads := func(e expr.Expr, written map[*cfsm.StateVar]bool) {
		for _, n := range e.Vars(nil) {
			if n[0] == '?' {
				if sig := sigByName[n[1:]]; sig != nil {
					p.ValueRead[sig] = true
				}
			} else if sv := byName[n]; sv != nil {
				read(sv, written)
			}
		}
	}
	visited := make(map[string]bool)
	var walk func(v *sgraph.Vertex, written map[*cfsm.StateVar]bool, sig string)
	walk = func(v *sgraph.Vertex, written map[*cfsm.StateVar]bool, sig string) {
		k := fmt.Sprintf("%p%s", v, sig)
		if visited[k] {
			return
		}
		visited[k] = true
		switch v.Kind {
		case sgraph.Begin:
			walk(v.Next, written, sig)
		case sgraph.Test:
			for _, t := range v.Tests {
				switch t.Kind {
				case cfsm.TestPredicate:
					noteReads(t.Pred, written)
				case cfsm.TestSelector:
					read(t.Sel, written)
				}
			}
			for _, c := range v.Children {
				walk(c, written, sig)
			}
		case sgraph.Assign:
			a := v.Action
			if a.Kind == cfsm.ActEmit {
				if a.Value != nil {
					noteReads(a.Value, written)
				}
				walk(v.Next, written, sig)
				return
			}
			noteReads(a.Expr, written)
			if written[a.Var] {
				walk(v.Next, written, sig)
				return
			}
			w2 := map[*cfsm.StateVar]bool{a.Var: true}
			for k := range written {
				w2[k] = true
			}
			walk(v.Next, w2, sig+"|"+a.Var.Name)
		}
	}
	walk(g.Begin, map[*cfsm.StateVar]bool{}, "")
	return p
}

// wideGraph builds a random s-graph over a CFSM with nStates state
// variables (every fourth a control variable) and two valued inputs:
// vertices are created bottom-up, each wired to earlier ones, so the
// graph is a DAG with shared suffixes reached under different written
// sets.
func wideGraph(r *rand.Rand, nStates, nVerts int) *sgraph.SGraph {
	c := cfsm.New("wide")
	ins := []*cfsm.Signal{c.AddInput("a", false), c.AddInput("b", false)}
	out := c.AddOutput("o", false)
	for i := 0; i < nStates; i++ {
		dom := 0
		if i%4 == 3 {
			dom = 3
		}
		c.AddState(fmt.Sprintf("s%d", i), dom, 0)
	}
	ref := func() expr.Expr {
		if r.Intn(5) == 0 {
			return expr.V("?" + ins[r.Intn(2)].Name)
		}
		return expr.V(c.States[r.Intn(nStates)].Name)
	}
	g := &sgraph.SGraph{C: c}
	add := func(v *sgraph.Vertex) *sgraph.Vertex {
		v.ID = len(g.Vertices)
		g.Vertices = append(g.Vertices, v)
		return v
	}
	g.End = add(&sgraph.Vertex{Kind: sgraph.End})
	pool := []*sgraph.Vertex{g.End}
	pick := func() *sgraph.Vertex { return pool[len(pool)-1-r.Intn(min(len(pool), 6))] }
	for i := 0; i < nVerts; i++ {
		var v *sgraph.Vertex
		switch r.Intn(3) {
		case 0:
			v = &sgraph.Vertex{Kind: sgraph.Test}
			if sv := c.States[r.Intn(nStates)]; sv.Domain > 0 {
				v.Tests = []*cfsm.Test{c.Sel(sv)}
			} else {
				v.Tests = []*cfsm.Test{c.Pred(expr.Gt(ref(), expr.Add(ref(), expr.C(1))))}
			}
			for k := 0; k < v.Arity(); k++ {
				v.Children = append(v.Children, pick())
			}
		case 1:
			v = &sgraph.Vertex{Kind: sgraph.Assign, Action: c.EmitV(out, expr.Add(ref(), ref())), Next: pick()}
		default:
			sv := c.States[r.Intn(nStates)]
			v = &sgraph.Vertex{Kind: sgraph.Assign, Action: c.Assign(sv, expr.Add(ref(), expr.C(1))), Next: pick()}
		}
		pool = append(pool, add(v))
	}
	g.Begin = add(&sgraph.Vertex{Kind: sgraph.Begin, Next: pool[len(pool)-1]})
	return g
}

// TestAnalyzeCopiesWideCFSM checks AnalyzeCopies on CFSMs with more
// than 64 state variables, where written sets spill past one word,
// against the map-based reference: first a fixed graph whose only
// write-before-read is on the 65th variable (index 64), then random
// graphs of 65 to 200 variables.
func TestAnalyzeCopiesWideCFSM(t *testing.T) {
	c := cfsm.New("wide65")
	in := c.AddInput("a", false)
	for i := 0; i < 70; i++ {
		c.AddState(fmt.Sprintf("s%d", i), 0, 0)
	}
	s64, s65, s3 := c.States[64], c.States[65], c.States[3]
	g := &sgraph.SGraph{C: c}
	add := func(v *sgraph.Vertex) *sgraph.Vertex {
		v.ID = len(g.Vertices)
		g.Vertices = append(g.Vertices, v)
		return v
	}
	g.End = add(&sgraph.Vertex{Kind: sgraph.End})
	read64 := add(&sgraph.Vertex{Kind: sgraph.Assign, Next: g.End,
		Action: c.Assign(s65, expr.Add(expr.V("s64"), expr.V("?a")))})
	write64 := add(&sgraph.Vertex{Kind: sgraph.Assign, Next: read64,
		Action: c.Assign(s64, expr.Add(expr.V("s3"), expr.C(1)))})
	g.Begin = add(&sgraph.Vertex{Kind: sgraph.Begin, Next: write64})
	got := AnalyzeCopies(g)
	if want := mapCopies(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("fixed graph: got %+v, want %+v", got, want)
	}
	if len(got.NeedCopy) != 1 || !got.NeedCopy[s64] {
		t.Errorf("NeedCopy = %v, want only s64", got.NeedCopy)
	}
	if len(got.Read) != 2 || !got.Read[s64] || !got.Read[s3] || got.Read[s65] {
		t.Errorf("Read = %v, want s3 and s64", got.Read)
	}
	if len(got.ValueRead) != 1 || !got.ValueRead[in] {
		t.Errorf("ValueRead = %v, want a", got.ValueRead)
	}

	r := rand.New(rand.NewSource(65))
	needs := 0
	for iter := 0; iter < 60; iter++ {
		g := wideGraph(r, 65+r.Intn(136), 10+r.Intn(40))
		got, want := AnalyzeCopies(g), mapCopies(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("random graph %d (%d states): got %+v, want %+v", iter, len(g.C.States), got, want)
		}
		for i, sv := range g.C.States {
			if i >= 64 && got.NeedCopy[sv] {
				needs++
			}
		}
	}
	if needs == 0 {
		t.Error("no random graph needed a copy of a variable past the 64th")
	}
}
