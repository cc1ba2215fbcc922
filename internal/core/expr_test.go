package core

import (
	"testing"

	"sigrec/internal/evm"
)

func TestExprConcreteFolding(t *testing.T) {
	a, b := NewConstUint(3), NewConstUint(4)
	sum := NewApp(evm.ADD, a, b)
	if v, ok := sum.ConstUint(); !ok || v != 7 {
		t.Errorf("3+4 = %v", sum)
	}
	sym := NewCData(NewConstUint(4))
	mixed := NewApp(evm.ADD, sym, b)
	if mixed.IsConst() {
		t.Error("symbolic + const must stay symbolic")
	}
	if !mixed.ContainsCData() {
		t.Error("taint lost")
	}
}

func TestExprStringStability(t *testing.T) {
	e1 := NewApp(evm.ADD, NewCData(NewConstUint(4)), NewConstUint(32))
	e2 := NewApp(evm.ADD, NewCData(NewConstUint(4)), NewConstUint(32))
	if e1.String() != e2.String() {
		t.Error("structurally equal expressions must render identically")
	}
	if e1.String() == NewApp(evm.ADD, NewCData(NewConstUint(36)), NewConstUint(32)).String() {
		t.Error("different expressions must render differently")
	}
}

func TestLinearize(t *testing.T) {
	cd := NewCData(NewConstUint(4))
	// 36 + cd*32 built two different ways must linearize identically.
	e1 := NewApp(evm.ADD, NewApp(evm.MUL, cd, NewConstUint(32)), NewConstUint(36))
	e2 := NewApp(evm.ADD, NewConstUint(36), NewApp(evm.MUL, NewConstUint(32), cd))
	l1, l2 := Linearize(e1), Linearize(e2)
	if !l1.Const.Eq(evm.WordFromUint64(36)) {
		t.Errorf("const part = %v", l1.Const)
	}
	c1, ok1 := l1.TermFor(cd.String())
	c2, ok2 := l2.TermFor(cd.String())
	if !ok1 || !ok2 || !c1.Eq(c2) || !c1.Eq(evm.WordFromUint64(32)) {
		t.Errorf("coefficients: %v %v", c1, c2)
	}
}

func TestLinearizeSub(t *testing.T) {
	cd := NewCData(NewConstUint(4))
	// (cd + 100) - cd = 100
	e := NewApp(evm.SUB, NewApp(evm.ADD, cd, NewConstUint(100)), cd)
	l := Linearize(e)
	if len(l.Terms) != 0 || !l.Const.Eq(evm.WordFromUint64(100)) {
		t.Errorf("linearize sub: %+v", l)
	}
}

func TestCDataAtoms(t *testing.T) {
	inner := NewCData(NewConstUint(4))
	outer := NewCData(NewApp(evm.ADD, inner, NewConstUint(4)))
	e := NewApp(evm.ADD, outer, NewConstUint(1))
	atoms := e.CDataAtoms()
	if len(atoms) != 1 || atoms[0].String() != outer.String() {
		t.Errorf("atoms = %v (outermost only expected)", atoms)
	}
}

func TestDescOf(t *testing.T) {
	cd := NewCData(NewConstUint(4))
	e := NewApp(evm.ADD, NewApp(evm.ADD, NewConstUint(4), cd), NewConstUint(32))
	d, ok := descOfUncached(e)
	if !ok || d.c != 36 || d.terms[cd.String()] != 1 {
		t.Errorf("desc = %+v ok=%v", d, ok)
	}
	body := bodyDesc{c: 4, terms: map[string]uint64{cd.String(): 1}}
	if !coversTerms(d, body) {
		t.Error("coversTerms failed")
	}
	if !sameTerms(d, body) {
		t.Error("sameTerms failed")
	}
}

func TestGuardControls(t *testing.T) {
	g := Guard{PC: 10, Lo: 10, Hi: 50}
	if !g.Controls(30) {
		t.Error("pc 30 should be controlled")
	}
	if g.Controls(60) || g.Controls(5) || g.Controls(10) {
		t.Error("out-of-interval pcs should not be controlled")
	}
}

func TestFoldOpCoverage(t *testing.T) {
	two, three := evm.WordFromUint64(2), evm.WordFromUint64(3)
	cases := []struct {
		op   evm.Op
		args []evm.Word
		want evm.Word
	}{
		{evm.ADD, []evm.Word{two, three}, evm.WordFromUint64(5)},
		{evm.SUB, []evm.Word{three, two}, evm.OneWord},
		{evm.EXP, []evm.Word{two, three}, evm.WordFromUint64(8)},
		{evm.LT, []evm.Word{two, three}, evm.OneWord},
		{evm.SHR, []evm.Word{evm.OneWord, two}, evm.OneWord},
		{evm.BYTE, []evm.Word{evm.WordFromUint64(31), evm.WordFromUint64(0xab)}, evm.WordFromUint64(0xab)},
	}
	for _, tc := range cases {
		got, ok := foldOp(tc.op, tc.args)
		if !ok || !got.Eq(tc.want) {
			t.Errorf("foldOp(%s) = %v ok=%v, want %v", tc.op, got, ok, tc.want)
		}
	}
	if _, ok := foldOp(evm.KECCAK256, []evm.Word{two, three}); ok {
		t.Error("KECCAK256 must not fold")
	}
}

func TestMaskRecognition(t *testing.T) {
	if m, ok := lowMaskBytes(evm.LowMask(160)); !ok || m != 20 {
		t.Errorf("low mask 20 bytes: %d %v", m, ok)
	}
	if m, ok := highMaskBytes(evm.HighMask(32)); !ok || m != 4 {
		t.Errorf("high mask 4 bytes: %d %v", m, ok)
	}
	if _, ok := lowMaskBytes(evm.WordFromUint64(0xfe)); ok {
		t.Error("0xfe is not a byte mask")
	}
	if _, ok := highMaskBytes(evm.MaxWord); ok {
		t.Error("all-ones is not a high mask below 32 bytes")
	}
}

// TestLinearizeAllocs pins Linearize's allocations: the term accumulator
// lives on the stack, so only the returned Terms slice is allocated.
func TestLinearizeAllocs(t *testing.T) {
	constOnly := NewApp(evm.ADD, NewConstUint(4), NewApp(evm.MUL, NewConstUint(32), NewConstUint(3)))
	x := NewCData(NewConstUint(4))
	cancelled := NewApp(evm.SUB, NewApp(evm.ADD, x, NewConstUint(7)), x)
	// Eight distinct atoms, with constants and a scaled term mixed in.
	var e *Expr = NewConstUint(0x24)
	for i := uint64(0); i < 8; i++ {
		atom := NewCData(NewConstUint(4 + 32*i))
		if i%3 == 0 {
			atom = NewApp(evm.MUL, NewConstUint(32), atom)
		}
		e = NewApp(evm.ADD, e, atom)
	}
	if got := len(Linearize(e).Terms); got != 8 {
		t.Fatalf("test setup: %d terms, want 8", got)
	}
	for _, c := range []struct {
		name string
		e    *Expr
		want float64
	}{
		{"constant", constOnly, 0},
		{"cancelled", cancelled, 0},
		{"eight atoms", e, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { Linearize(c.e) }); got != c.want {
			t.Errorf("%s: %v allocs per Linearize, want %v", c.name, got, c.want)
		}
	}
}
