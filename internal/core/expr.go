// Package core implements SigRec itself: function-id extraction from the
// dispatcher, type-aware symbolic execution (TASE), and the inference rules
// R1-R31 organized as the paper's decision tree.
package core

import (
	"strconv"
	"strings"

	"sigrec/internal/evm"
)

// Expr is a symbolic 256-bit value. Every node may carry a concrete value
// (Conc) when all of its inputs were concrete; this lets TASE execute
// concretely where possible (loop counters, constant offsets) while keeping
// full provenance for the rules. Nodes are immutable once built: TASE
// hash-conses them through an interner (see intern.go), so structurally
// identical values share one node and carry a per-trace integer id.
type Expr struct {
	// Kind discriminates the node.
	Kind ExprKind
	// Conc is the concrete value when known.
	Conc *evm.Word
	// Op is the EVM opcode for KindApp nodes.
	Op evm.Op
	// Args are the operand expressions for KindApp nodes; for KindCData
	// Args[0] is the call-data offset the value was loaded from.
	Args []*Expr
	// Env labels environment values (CALLER, SLOAD results, ...).
	Env string
	// Seq disambiguates distinct environment values.
	Seq int

	// id is the interner-assigned identity (0 = not interned). Within one
	// trace, equal ids imply structural equality, so event dedup compares
	// integers instead of rendered strings.
	id uint32
	// str caches the canonical rendering; expressions are immutable, so
	// the first String() call fills it and later calls are free.
	str string
}

// ExprKind is the node discriminator.
type ExprKind int

// Expression node kinds.
const (
	// KindConst is a literal word.
	KindConst ExprKind = iota + 1
	// KindCData is the 32-byte value CALLDATALOAD(Args[0]).
	KindCData
	// KindCSize is CALLDATASIZE.
	KindCSize
	// KindEnv is an unconstrained environment value.
	KindEnv
	// KindApp is Op(Args...).
	KindApp
)

// NewConst returns a constant expression.
func NewConst(w evm.Word) *Expr {
	cp := w
	return &Expr{Kind: KindConst, Conc: &cp}
}

// NewConstUint returns a small constant expression.
func NewConstUint(v uint64) *Expr { return NewConst(evm.WordFromUint64(v)) }

// NewCData returns the value read from the call data at off.
func NewCData(off *Expr) *Expr {
	return &Expr{Kind: KindCData, Args: []*Expr{off}}
}

// NewEnv returns a fresh environment value.
func NewEnv(label string, seq int) *Expr {
	return &Expr{Kind: KindEnv, Env: label, Seq: seq}
}

// NewApp builds Op(args...), computing the concrete value when every
// argument has one.
func NewApp(op evm.Op, args ...*Expr) *Expr {
	e := &Expr{Kind: KindApp, Op: op, Args: args}
	if w, ok := foldArgs(op, args); ok {
		e.Conc = &w
	}
	return e
}

// foldArgs evaluates op concretely when every argument carries a concrete
// value (pure EVM opcodes pop at most three operands).
func foldArgs(op evm.Op, args []*Expr) (evm.Word, bool) {
	var words [3]evm.Word
	if len(args) > len(words) {
		return evm.Word{}, false
	}
	for i, a := range args {
		if a.Conc == nil {
			return evm.Word{}, false
		}
		words[i] = *a.Conc
	}
	return foldOp(op, words[:len(args)])
}

// foldOp evaluates a pure opcode on concrete operands.
func foldOp(op evm.Op, a []evm.Word) (evm.Word, bool) {
	switch op {
	case evm.ADD:
		return a[0].Add(a[1]), true
	case evm.MUL:
		return a[0].Mul(a[1]), true
	case evm.SUB:
		return a[0].Sub(a[1]), true
	case evm.DIV:
		return a[0].Div(a[1]), true
	case evm.SDIV:
		return a[0].SDiv(a[1]), true
	case evm.MOD:
		return a[0].Mod(a[1]), true
	case evm.SMOD:
		return a[0].SMod(a[1]), true
	case evm.ADDMOD:
		return a[0].AddMod(a[1], a[2]), true
	case evm.MULMOD:
		return a[0].MulMod(a[1], a[2]), true
	case evm.EXP:
		return a[0].Exp(a[1]), true
	case evm.SIGNEXTEND:
		return a[1].SignExtend(a[0]), true
	case evm.LT:
		return a[0].Lt(a[1]), true
	case evm.GT:
		return a[0].Gt(a[1]), true
	case evm.SLT:
		return a[0].Slt(a[1]), true
	case evm.SGT:
		return a[0].Sgt(a[1]), true
	case evm.EQ:
		return a[0].EqWord(a[1]), true
	case evm.ISZERO:
		return a[0].IsZeroWord(), true
	case evm.AND:
		return a[0].And(a[1]), true
	case evm.OR:
		return a[0].Or(a[1]), true
	case evm.XOR:
		return a[0].Xor(a[1]), true
	case evm.NOT:
		return a[0].Not(), true
	case evm.BYTE:
		return a[1].Byte(a[0]), true
	case evm.SHL:
		return a[1].Shl(a[0]), true
	case evm.SHR:
		return a[1].Shr(a[0]), true
	case evm.SAR:
		return a[1].Sar(a[0]), true
	default:
		return evm.Word{}, false
	}
}

// IsConst reports whether the expression has a known concrete value.
func (e *Expr) IsConst() bool { return e.Conc != nil }

// ConstUint returns the concrete value as uint64 when it is known and fits.
func (e *Expr) ConstUint() (uint64, bool) {
	if e.Conc == nil {
		return 0, false
	}
	return e.Conc.Uint64()
}

// String renders a canonical form used as the structural key throughout
// inference. The rendering is cached on the node: expressions are immutable
// and confined to one recovery, so repeated calls cost a field read.
func (e *Expr) String() string {
	if e.str == "" {
		var b strings.Builder
		e.render(&b, 0)
		e.str = b.String()
	}
	return e.str
}

// maxRenderDepth bounds expression rendering. It must exceed the deepest
// address expression the generated code produces (about 3 nodes per array
// dimension), or distinct events would collide in the dedup index.
const maxRenderDepth = 96

func (e *Expr) render(b *strings.Builder, depth int) {
	if depth > maxRenderDepth {
		b.WriteString("...")
		return
	}
	switch e.Kind {
	case KindConst:
		b.WriteString(e.Conc.Hex())
	case KindCData:
		b.WriteString("cd[")
		e.Args[0].render(b, depth+1)
		b.WriteString("]")
	case KindCSize:
		b.WriteString("cdsize")
	case KindEnv:
		b.WriteString(e.Env)
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(e.Seq))
	case KindApp:
		b.WriteString(e.Op.String())
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(",")
			}
			a.render(b, depth+1)
		}
		b.WriteString(")")
	}
}

// ContainsCData reports whether the value depends on the call data.
func (e *Expr) ContainsCData() bool {
	switch e.Kind {
	case KindCData:
		return true
	case KindApp:
		for _, a := range e.Args {
			if a.ContainsCData() {
				return true
			}
		}
	}
	return false
}

// CDataAtoms collects the distinct CData leaves (outermost only: a CData
// whose offset itself contains CData is reported once, not recursed into).
func (e *Expr) CDataAtoms() []*Expr {
	var out []*Expr
	seen := make(map[string]bool)
	var walk func(x *Expr)
	walk = func(x *Expr) {
		switch x.Kind {
		case KindCData:
			key := x.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, x)
			}
		case KindApp:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// Linear is the linearization of an expression: Constant + sum of
// coefficient*atom, where atoms are non-additive subexpressions (CData
// leaves, environment values, opaque applications).
type Linear struct {
	Const evm.Word
	Terms []LinearTerm
}

// LinearTerm is one coefficient*atom component.
type LinearTerm struct {
	Atom  *Expr
	Coeff evm.Word
}

// Linearize decomposes an expression over ADD/SUB/MUL-by-constant.
func Linearize(e *Expr) Linear {
	// Terms accumulate in a stack array threaded through the recursion
	// (linAdd returns the grown slice, so no pointer into the array is
	// stored anywhere and it stays off the heap); only the result is
	// copied out.
	var buf [8]LinearTerm
	var c evm.Word
	terms := linAdd(buf[:0], &c, e, evm.OneWord)
	out := Linear{Const: c}
	// Drop cancelled terms.
	n := 0
	for i := range terms {
		if !terms[i].Coeff.IsZero() {
			n++
		}
	}
	if n > 0 {
		out.Terms = make([]LinearTerm, 0, n)
		for _, t := range terms {
			if !t.Coeff.IsZero() {
				out.Terms = append(out.Terms, t)
			}
		}
	}
	return out
}

// linearConst returns just the constant component of the linearization —
// exactly Linearize(e).Const, without materializing any terms. Hot paths
// that only attribute an address to a base offset (mload) use it to avoid
// the term slice entirely.
func linearConst(e *Expr) evm.Word {
	var c evm.Word
	addLinearConst(&c, e, evm.OneWord)
	return c
}

func addLinearConst(c *evm.Word, e *Expr, coeff evm.Word) {
	if e.Conc != nil {
		*c = c.Add(e.Conc.Mul(coeff))
		return
	}
	if e.Kind == KindApp {
		switch e.Op {
		case evm.ADD:
			addLinearConst(c, e.Args[0], coeff)
			addLinearConst(c, e.Args[1], coeff)
		case evm.SUB:
			addLinearConst(c, e.Args[0], coeff)
			addLinearConst(c, e.Args[1], coeff.Neg())
		case evm.MUL:
			if e.Args[0].Conc != nil {
				addLinearConst(c, e.Args[1], coeff.Mul(*e.Args[0].Conc))
			} else if e.Args[1].Conc != nil {
				addLinearConst(c, e.Args[0], coeff.Mul(*e.Args[1].Conc))
			}
		}
	}
}

// linAdd adds coeff*e into the constant c and the terms, and returns the
// terms. Terms keep first-seen order. Linearizations are small (a handful
// of atoms), so merging is a linear scan over a slice — no map, no
// per-term heap nodes. Interned atoms merge by pointer; the rendered
// string (cached on the node) is the fallback so the noIntern differential
// mode merges structurally identical duplicates exactly as before.
func linAdd(terms []LinearTerm, c *evm.Word, e *Expr, coeff evm.Word) []LinearTerm {
	if e.Conc != nil {
		*c = c.Add(e.Conc.Mul(coeff))
		return terms
	}
	if e.Kind == KindApp {
		switch e.Op {
		case evm.ADD:
			terms = linAdd(terms, c, e.Args[0], coeff)
			return linAdd(terms, c, e.Args[1], coeff)
		case evm.SUB:
			terms = linAdd(terms, c, e.Args[0], coeff)
			return linAdd(terms, c, e.Args[1], coeff.Neg())
		case evm.MUL:
			if e.Args[0].Conc != nil {
				return linAdd(terms, c, e.Args[1], coeff.Mul(*e.Args[0].Conc))
			}
			if e.Args[1].Conc != nil {
				return linAdd(terms, c, e.Args[0], coeff.Mul(*e.Args[1].Conc))
			}
		}
	}
	for i := range terms {
		t := &terms[i]
		if t.Atom == e || t.Atom.String() == e.String() {
			t.Coeff = t.Coeff.Add(coeff)
			return terms
		}
	}
	return append(terms, LinearTerm{Atom: e, Coeff: coeff})
}

// TermFor returns the coefficient of the atom with the given canonical
// string, if present.
func (l Linear) TermFor(key string) (evm.Word, bool) {
	for _, t := range l.Terms {
		if t.Atom.String() == key {
			return t.Coeff, true
		}
	}
	return evm.Word{}, false
}
