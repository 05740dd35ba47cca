// Package codegen translates s-graphs into target code: portable C
// text (Section III-B4 of the paper) and object code for the virtual
// embedded CPU of internal/vm. The one-statement-per-vertex discipline
// the paper relies on for estimation is preserved: every s-graph
// vertex maps to a fixed, recognisable instruction pattern.
package codegen

import (
	"encoding/binary"
	"sync"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// CopyPlan records which state variables must be copied on routine
// entry. The paper's implementation copies every variable "to provide
// a safe implementation of the update of their next-state values" and
// notes that a data-flow analysis detecting write-before-read cases
// would reduce ROM, RAM and CPU time (Section V-B); NeedCopy computes
// exactly that analysis, and generators consult it when the
// OptimizeCopies option is on.
type CopyPlan struct {
	// Read reports state variables whose value some expression or
	// selector reads.
	Read map[*cfsm.StateVar]bool
	// NeedCopy reports state variables that are written on some path
	// before a later read — only these need an entry copy.
	NeedCopy map[*cfsm.StateVar]bool
	// ValueRead reports input signals whose carried value is read.
	ValueRead map[*cfsm.Signal]bool
}

// AnalyzeCopies runs the write-before-read data-flow analysis over all
// BEGIN-to-END paths of g. The DFS carries the set of state variables
// written so far and visits each vertex once per distinct set: what a
// path suffix reads before a copy is needed depends only on which
// variables were written before it, not on the order of the writes.
func AnalyzeCopies(g *sgraph.SGraph) *CopyPlan {
	states, inputs := g.C.States, g.C.Inputs
	w := copyPool.Get().(*copyWalk)
	for i, sv := range states {
		w.stateByName[sv.Name] = i
		w.stateByPtr[sv] = i
	}
	for i, s := range inputs {
		w.sigByName[s.Name] = i
	}
	w.read = append(w.read[:0], make([]bool, len(states))...)
	w.need = append(w.need[:0], make([]bool, len(states))...)
	w.valueRead = append(w.valueRead[:0], make([]bool, len(inputs))...)
	if len(states) > 64 {
		// Sets over the variables past the 64th are interned; id 0 is
		// the empty one.
		w.hiSets = [][]uint64{make([]uint64, (len(states)-64+63)/64)}
		w.hiIDs = make(map[string]int)
	}
	w.walk(g.Begin, writtenSet{})

	p := &CopyPlan{
		Read:      make(map[*cfsm.StateVar]bool),
		NeedCopy:  make(map[*cfsm.StateVar]bool),
		ValueRead: make(map[*cfsm.Signal]bool),
	}
	for i, sv := range states {
		if w.read[i] {
			p.Read[sv] = true
		}
		if w.need[i] {
			p.NeedCopy[sv] = true
		}
	}
	for i, s := range inputs {
		if w.valueRead[i] {
			p.ValueRead[s] = true
		}
	}
	w.release()
	return p
}

// copyPool recycles the walk state of AnalyzeCopies — its lookup
// maps, visit set and buffers — which every module's code generation,
// C emission and estimate each need once.
var copyPool = sync.Pool{New: func() any {
	return &copyWalk{
		stateByName: make(map[string]int),
		stateByPtr:  make(map[*cfsm.StateVar]int),
		sigByName:   make(map[string]int),
		visited:     make(map[copyVisit]struct{}),
	}
}}

// release empties w, keeping its storage, and returns it to the pool.
func (w *copyWalk) release() {
	clear(w.stateByName)
	clear(w.stateByPtr)
	clear(w.sigByName)
	clear(w.visited)
	clear(w.vars[:cap(w.vars)])
	w.hiSets, w.hiIDs = nil, nil
	copyPool.Put(w)
}

// writtenSet is a set of state-variable indices: the first 64 as bits
// of lo, the rest as the id of an interned word slice (0 = none).
type writtenSet struct {
	lo uint64
	hi int
}

// copyVisit keys one DFS visit: a vertex reached with a written set.
type copyVisit struct {
	v *sgraph.Vertex
	s writtenSet
}

// copyWalk is the state of one AnalyzeCopies run. Variables and input
// signals are identified by their index in the CFSM's States and
// Inputs; the plan's maps are filled from the flags at the end.
type copyWalk struct {
	stateByName map[string]int
	stateByPtr  map[*cfsm.StateVar]int
	sigByName   map[string]int

	read, need []bool // per state variable
	valueRead  []bool // per input signal

	visited map[copyVisit]struct{}
	vars    []string // reused Vars buffer

	// Interned high words of written sets, by id, and the ids by
	// their little-endian bytes (CFSMs with more than 64 state
	// variables only).
	hiSets [][]uint64
	hiIDs  map[string]int
	hiKey  []byte
}

func (w *copyWalk) has(s writtenSet, i int) bool {
	if i < 64 {
		return s.lo&(1<<uint(i)) != 0
	}
	i -= 64
	return w.hiSets[s.hi][i/64]&(1<<uint(i%64)) != 0
}

// with returns s plus variable i.
func (w *copyWalk) with(s writtenSet, i int) writtenSet {
	if i < 64 {
		s.lo |= 1 << uint(i)
		return s
	}
	i -= 64
	words := w.hiSets[s.hi]
	key := w.hiKey[:0]
	for j, x := range words {
		if j == i/64 {
			x |= 1 << uint(i%64)
		}
		key = binary.LittleEndian.AppendUint64(key, x)
	}
	w.hiKey = key
	if id, ok := w.hiIDs[string(key)]; ok {
		s.hi = id
		return s
	}
	nw := append([]uint64(nil), words...)
	nw[i/64] |= 1 << uint(i%64)
	s.hi = len(w.hiSets)
	w.hiSets = append(w.hiSets, nw)
	w.hiIDs[string(key)] = s.hi
	return s
}

// readVar notes a read of state variable i under written set s.
func (w *copyWalk) readVar(i int, s writtenSet) {
	w.read[i] = true
	if w.has(s, i) {
		w.need[i] = true
	}
}

// noteReads notes every variable e reads: input values by their ?name,
// state variables by name.
func (w *copyWalk) noteReads(e expr.Expr, s writtenSet) {
	w.vars = e.Vars(w.vars[:0])
	for _, n := range w.vars {
		if len(n) > 0 && n[0] == '?' {
			if i, ok := w.sigByName[n[1:]]; ok {
				w.valueRead[i] = true
			}
			continue
		}
		if i, ok := w.stateByName[n]; ok {
			w.readVar(i, s)
		}
	}
}

func (w *copyWalk) walk(v *sgraph.Vertex, s writtenSet) {
	k := copyVisit{v, s}
	if _, ok := w.visited[k]; ok {
		return
	}
	w.visited[k] = struct{}{}
	switch v.Kind {
	case sgraph.Begin:
		w.walk(v.Next, s)
	case sgraph.End:
	case sgraph.Test:
		for _, t := range v.Tests {
			switch t.Kind {
			case cfsm.TestPredicate:
				w.noteReads(t.Pred, s)
			case cfsm.TestSelector:
				if i, ok := w.stateByPtr[t.Sel]; ok {
					w.readVar(i, s)
				}
			}
		}
		for _, c := range v.Children {
			w.walk(c, s)
		}
	case sgraph.Assign:
		a := v.Action
		switch a.Kind {
		case cfsm.ActEmit:
			if a.Value != nil {
				w.noteReads(a.Value, s)
			}
		case cfsm.ActAssign:
			w.noteReads(a.Expr, s)
			if i, ok := w.stateByPtr[a.Var]; ok {
				s = w.with(s, i)
			}
		}
		w.walk(v.Next, s)
	}
}
