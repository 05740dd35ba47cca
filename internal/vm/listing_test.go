package vm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"polis/internal/expr"
)

// fmtListing is the fmt-based listing renderer Listing replaced, kept
// as the reference its output must match byte for byte.
func fmtListing(p *Program) string {
	byIndex := make(map[int][]string)
	for l, i := range p.Labels {
		byIndex[i] = append(byIndex[i], l)
	}
	for _, ls := range byIndex {
		sort.Strings(ls)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; routine %s (%d words of data)\n", p.Name, p.Words)
	for i, in := range p.Instrs {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %-5s", in.Op)
		switch in.Op {
		case LDI:
			fmt.Fprintf(&b, " r%d, #%d", in.Rd, in.Imm)
		case LD:
			fmt.Fprintf(&b, " r%d, [%d]", in.Rd, in.Addr)
		case ST:
			fmt.Fprintf(&b, " [%d], r%d", in.Addr, in.Rs)
		case MOV:
			fmt.Fprintf(&b, " r%d, r%d", in.Rd, in.Rs)
		case ALU:
			fmt.Fprintf(&b, "."+in.AOp.Name()+" r%d, r%d", in.Rd, in.Rs)
		case NEG, NOT:
			fmt.Fprintf(&b, " r%d", in.Rd)
		case BR:
			fmt.Fprintf(&b, ".%s r%d, r%d, %s", in.Cond, in.Rs, in.Rt, in.Label)
		case BRZ, BRNZ:
			fmt.Fprintf(&b, " r%d, %s", in.Rs, in.Label)
		case JMP:
			fmt.Fprintf(&b, " %s", in.Label)
		case JTAB:
			fmt.Fprintf(&b, " r%d, %v", in.Rs, in.Table)
		case SVC:
			fmt.Fprintf(&b, " #%d, sig=%d, r%d", in.Num, in.Imm, in.Rs)
		}
		if in.Comment != "" {
			fmt.Fprintf(&b, "  ; %s", in.Comment)
		}
		b.WriteByte('\n')
	}
	for _, l := range byIndex[len(p.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

// TestListingMatchesFmt renders random programs covering every opcode,
// negative immediates, empty and multi-entry jump tables, several
// labels on one instruction and labels past the last instruction, and
// compares Listing with the fmt-based reference.
func TestListingMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	num := func() int64 { return r.Int63n(2001) - 1000 }
	for iter := 0; iter < 300; iter++ {
		p := NewProgram(fmt.Sprintf("prog%d", iter))
		for w := r.Intn(5); w > 0; w-- {
			p.Alloc(fmt.Sprintf("w%d", w))
		}
		n := r.Intn(30)
		label := func() string { return fmt.Sprintf("L%d", r.Intn(n+2)) }
		for i := 0; i < n; i++ {
			in := Instr{
				Op: OpCode(r.Intn(int(numOpcodes))), Rd: r.Intn(5), Rs: r.Intn(5), Rt: r.Intn(5),
				Cond: Cond(r.Intn(6)), AOp: expr.Op(r.Intn(expr.NumOps())), Imm: num(),
				Addr: r.Intn(300), Num: r.Intn(4), Label: label(),
			}
			if in.Op == JTAB {
				for k := r.Intn(4); k > 0; k-- {
					in.Table = append(in.Table, label())
				}
			}
			if r.Intn(2) == 0 {
				in.Comment = fmt.Sprintf("c%d %s", i, label())
			}
			p.Emit(in)
		}
		for k := r.Intn(8); k > 0; k-- {
			l := fmt.Sprintf("x%d", r.Intn(100))
			if _, dup := p.Labels[l]; !dup {
				p.Labels[l] = r.Intn(n + 1)
			}
		}
		if got, want := p.Listing(), fmtListing(p); got != want {
			t.Fatalf("iteration %d: listing differs\n got:\n%s\nwant:\n%s", iter, got, want)
		}
	}
}

// TestAnalyzeCyclesErrors checks the three failures AnalyzeCycles
// reports instead of bounds: a cycle, a jump out of the instruction
// stream and an unknown entry label.
func TestAnalyzeCyclesErrors(t *testing.T) {
	cyclic := NewProgram("cyclic")
	cyclic.Emit(Instr{Op: NOP})
	if err := cyclic.Mark("back"); err != nil {
		t.Fatal(err)
	}
	cyclic.Emit(Instr{Op: BRZ, Rs: 0, Label: "out"})
	cyclic.Emit(Instr{Op: JMP, Label: "back"})
	if err := cyclic.Mark("out"); err != nil {
		t.Fatal(err)
	}
	cyclic.Emit(Instr{Op: HALT})

	// Falls off the end: the NOP's successor is past the stream.
	offEnd := NewProgram("off_end")
	offEnd.Emit(Instr{Op: NOP})

	// Jumps to a label defined past the last instruction.
	farJump := NewProgram("far_jump")
	farJump.Emit(Instr{Op: JMP, Label: "past"})
	if err := farJump.Mark("past"); err != nil {
		t.Fatal(err)
	}

	ok := NewProgram("ok")
	ok.Emit(Instr{Op: HALT})

	for _, c := range []struct {
		p     *Program
		entry string
		want  string
	}{
		{cyclic, "", "vm: cycle in control flow at instruction 1"},
		{offEnd, "", "vm: pc 1 out of range"},
		{farJump, "", "vm: pc 1 out of range"},
		{ok, "missing", `vm: unknown entry label "missing"`},
	} {
		for _, prof := range []*Profile{HC11(), R3K()} {
			_, err := AnalyzeCycles(prof, c.p, c.entry)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s on %s: error %v, want %q", c.p.Name, prof.Name, err, c.want)
			}
		}
	}
	if pc, err := AnalyzeCycles(HC11(), ok, ""); err != nil || pc.Min != pc.Max || pc.Max != int64(HC11().Cyc[HALT]) {
		t.Errorf("single HALT: %+v, %v", pc, err)
	}
}
