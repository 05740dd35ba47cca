// Package vm implements the simulated embedded target processor the
// reproduction measures against. The paper compiled its generated C
// onto a Motorola 68HC11 (INTROL compiler), a MIPS R3000 and a DEC
// ALPHA; those targets are replaced here by a deterministic,
// cycle-accurate virtual CPU with two cost profiles — an 8-bit
// "HC11-class" micro-controller profile (expensive arithmetic library
// calls, short-branch encodings, slow RTOS traps) and a 32-bit
// "R3K-class" profile (uniform 4-byte instructions, fast ALU). The
// relationships the paper studies — estimated versus measured cost,
// and the relative cost of alternative code structures — only require
// such a fixed, measurable target; absolute byte and cycle values were
// target-specific in the paper as well.
package vm

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"polis/internal/expr"
)

// OpCode enumerates the virtual instruction set.
type OpCode int

// Instruction opcodes.
const (
	NOP  OpCode = iota
	LDI         // Rd <- Imm
	LD          // Rd <- Mem[Addr]
	ST          // Mem[Addr] <- Rs
	MOV         // Rd <- Rs
	ALU         // Rd <- Rd aop Rs (aop is an expr.Op)
	NEG         // Rd <- -Rd
	NOT         // Rd <- (Rd == 0)
	BR          // if Rs cond Rt then jump Label
	BRZ         // if Rs == 0 then jump Label
	BRNZ        // if Rs != 0 then jump Label
	JMP         // jump Label
	JTAB        // multiway jump: Table[Rs] (Rs must be in range)
	SVC         // RTOS service call (Num selects the service)
	HALT        // end of routine
	numOpcodes
)

var opcodeNames = [...]string{
	NOP: "nop", LDI: "ldi", LD: "ld", ST: "st", MOV: "mov", ALU: "alu",
	NEG: "neg", NOT: "not", BR: "br", BRZ: "brz", BRNZ: "brnz",
	JMP: "jmp", JTAB: "jtab", SVC: "svc", HALT: "halt",
}

func (o OpCode) String() string { return opcodeNames[o] }

// Cond is the comparison of a BR instruction.
type Cond int

// Branch conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string { return condNames[c] }

// Holds reports whether the condition holds for the operand values.
func (c Cond) Holds(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	default:
		return a >= b
	}
}

// Service numbers for SVC.
const (
	SvcPresent = iota // r0 <- presence flag of signal Num arg (Imm)
	SvcValue          // r0 <- value of input signal Imm
	SvcEmit           // emit pure signal Imm
	SvcEmitV          // emit signal Imm with value in Rs
)

// Instr is one virtual instruction. Fields are used according to Op.
type Instr struct {
	Op    OpCode
	Rd    int
	Rs    int
	Rt    int
	Cond  Cond
	AOp   expr.Op
	Imm   int64
	Addr  int
	Num   int      // SVC service number
	Label string   // branch/jump target
	Table []string // JTAB targets
	// Comment annotates listings with the originating s-graph
	// vertex; it has no semantic effect.
	Comment string
}

// Program is an assembled routine: a label map plus the instruction
// stream. Addresses index the data memory of the machine; Words is
// the number of data words the routine uses.
type Program struct {
	Name    string
	Instrs  []Instr
	Labels  map[string]int // label -> instruction index
	Words   int            // data memory footprint in words
	Symbols map[string]int // variable name -> address, for listings
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:    name,
		Labels:  make(map[string]int),
		Symbols: make(map[string]int),
	}
}

// Emit appends an instruction and returns its index.
func (p *Program) Emit(i Instr) int {
	p.Instrs = append(p.Instrs, i)
	return len(p.Instrs) - 1
}

// Mark defines a label at the current position.
func (p *Program) Mark(label string) error {
	if _, dup := p.Labels[label]; dup {
		return fmt.Errorf("vm: duplicate label %q", label)
	}
	p.Labels[label] = len(p.Instrs)
	return nil
}

// Alloc reserves a data word for the named variable and returns its
// address. Repeated calls with one name return the same address.
func (p *Program) Alloc(name string) int {
	if a, ok := p.Symbols[name]; ok {
		return a
	}
	a := p.Words
	p.Symbols[name] = a
	p.Words++
	return a
}

// Resolve verifies every referenced label exists.
func (p *Program) Resolve() error {
	check := func(l string) error {
		if l == "" {
			return fmt.Errorf("vm: empty label")
		}
		if _, ok := p.Labels[l]; !ok {
			return fmt.Errorf("vm: undefined label %q", l)
		}
		return nil
	}
	for i, in := range p.Instrs {
		switch in.Op {
		case BR, BRZ, BRNZ, JMP:
			if err := check(in.Label); err != nil {
				return fmt.Errorf("instr %d: %w", i, err)
			}
		case JTAB:
			if len(in.Table) == 0 {
				return fmt.Errorf("instr %d: empty jump table", i)
			}
			for _, l := range in.Table {
				if err := check(l); err != nil {
					return fmt.Errorf("instr %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

// listScratch is the reusable working storage of Listing: the text
// buffer the listing is rendered into and the label table sorted by
// position.
type listScratch struct {
	buf    []byte
	labels []listLabel
}

type listLabel struct {
	idx  int
	name string
}

var listPool = sync.Pool{New: func() any { return new(listScratch) }}

// Listing renders a human-readable assembly listing. The text is
// rendered into pooled scratch storage and copied out once, so a
// listing costs one allocation of exactly its own length.
func (p *Program) Listing() string {
	sc := listPool.Get().(*listScratch)
	labels := sc.labels[:0]
	for l, i := range p.Labels {
		labels = append(labels, listLabel{i, l})
	}
	slices.SortFunc(labels, func(x, y listLabel) int {
		if x.idx != y.idx {
			return cmp.Compare(x.idx, y.idx)
		}
		return strings.Compare(x.name, y.name)
	})
	b := append(sc.buf[:0], "; routine "...)
	b = append(b, p.Name...)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(p.Words), 10)
	b = append(b, " words of data)\n"...)
	k := 0
	// appendLabels writes the labels defined at instruction index i;
	// labels at indices outside the stream are never printed.
	appendLabels := func(i int) {
		for k < len(labels) && labels[k].idx < i {
			k++
		}
		for ; k < len(labels) && labels[k].idx == i; k++ {
			b = append(b, labels[k].name...)
			b = append(b, ":\n"...)
		}
	}
	for i := range p.Instrs {
		appendLabels(i)
		b = appendInstr(b, &p.Instrs[i])
	}
	appendLabels(len(p.Instrs))
	s := string(b)
	clear(labels)
	sc.buf, sc.labels = b[:0], labels[:0]
	listPool.Put(sc)
	return s
}

// appendInstr appends one listing line: the opcode padded to five
// columns, its operands and the optional comment.
func appendInstr(b []byte, in *Instr) []byte {
	b = append(b, "  "...)
	op := in.Op.String()
	b = append(b, op...)
	for n := len(op); n < 5; n++ {
		b = append(b, ' ')
	}
	reg := func(b []byte, r int) []byte {
		return strconv.AppendInt(append(b, 'r'), int64(r), 10)
	}
	switch in.Op {
	case LDI:
		b = reg(append(b, ' '), in.Rd)
		b = strconv.AppendInt(append(b, ", #"...), in.Imm, 10)
	case LD:
		b = reg(append(b, ' '), in.Rd)
		b = strconv.AppendInt(append(b, ", ["...), int64(in.Addr), 10)
		b = append(b, ']')
	case ST:
		b = strconv.AppendInt(append(b, " ["...), int64(in.Addr), 10)
		b = reg(append(b, "], "...), in.Rs)
	case MOV:
		b = reg(append(b, ' '), in.Rd)
		b = reg(append(b, ", "...), in.Rs)
	case ALU:
		b = append(append(b, '.'), in.AOp.Name()...)
		b = reg(append(b, ' '), in.Rd)
		b = reg(append(b, ", "...), in.Rs)
	case NEG, NOT:
		b = reg(append(b, ' '), in.Rd)
	case BR:
		b = append(append(b, '.'), in.Cond.String()...)
		b = reg(append(b, ' '), in.Rs)
		b = reg(append(b, ", "...), in.Rt)
		b = append(append(b, ", "...), in.Label...)
	case BRZ, BRNZ:
		b = reg(append(b, ' '), in.Rs)
		b = append(append(b, ", "...), in.Label...)
	case JMP:
		b = append(append(b, ' '), in.Label...)
	case JTAB:
		b = reg(append(b, ' '), in.Rs)
		b = append(b, ", ["...)
		for j, l := range in.Table {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, l...)
		}
		b = append(b, ']')
	case SVC:
		b = strconv.AppendInt(append(b, " #"...), int64(in.Num), 10)
		b = strconv.AppendInt(append(b, ", sig="...), in.Imm, 10)
		b = reg(append(b, ", "...), in.Rs)
	}
	if in.Comment != "" {
		b = append(append(b, "  ; "...), in.Comment...)
	}
	return append(b, '\n')
}
