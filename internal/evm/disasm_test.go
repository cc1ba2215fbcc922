package evm

import (
	"strings"
	"testing"
)

func TestDisassembleBasic(t *testing.T) {
	// PUSH1 0x04 CALLDATALOAD STOP
	code := []byte{byte(PUSH1), 0x04, byte(CALLDATALOAD), byte(STOP)}
	p := Disassemble(code)
	if len(p.Instructions) != 3 {
		t.Fatalf("got %d instructions", len(p.Instructions))
	}
	if p.Instructions[0].Op != PUSH1 || !p.Instructions[0].Arg.Eq(WordFromUint64(4)) {
		t.Errorf("instruction 0 = %v", p.Instructions[0])
	}
	if p.Instructions[1].PC != 2 || p.Instructions[1].Op != CALLDATALOAD {
		t.Errorf("instruction 1 = %v", p.Instructions[1])
	}
	if _, ok := p.At(1); ok {
		t.Error("PC 1 is inside an immediate and must not decode")
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	code := []byte{byte(PUSH4), 0xaa, 0xbb}
	p := Disassemble(code)
	if len(p.Instructions) != 1 {
		t.Fatalf("got %d instructions", len(p.Instructions))
	}
	ins := p.Instructions[0]
	if !ins.Truncated {
		t.Error("expected truncated flag")
	}
	// Immediate is zero-padded on the right: 0xaabb0000.
	if !ins.Arg.Eq(WordFromUint64(0xaabb0000)) {
		t.Errorf("arg = %v", ins.Arg)
	}
}

func TestDisassembleInvalidBytes(t *testing.T) {
	code := []byte{0x0c, 0x0d, byte(STOP)} // 0x0c/0x0d are undefined
	p := Disassemble(code)
	if len(p.Instructions) != 3 {
		t.Fatalf("got %d instructions", len(p.Instructions))
	}
	if p.Instructions[0].Op.Defined() {
		t.Error("0x0c should be undefined")
	}
	if !strings.Contains(p.Instructions[0].Op.String(), "INVALID") {
		t.Errorf("mnemonic = %s", p.Instructions[0].Op)
	}
}

func TestDisassembleEmpty(t *testing.T) {
	p := Disassemble(nil)
	if len(p.Instructions) != 0 {
		t.Errorf("empty code should have no instructions")
	}
	if p.BasicBlocks() != nil {
		t.Errorf("empty code should have no blocks")
	}
}

func TestJumpDestIndex(t *testing.T) {
	code := []byte{byte(PUSH1), byte(JUMPDEST), byte(JUMPDEST), byte(STOP)}
	p := Disassemble(code)
	// Byte 1 is a JUMPDEST value but it is inside the PUSH1 immediate,
	// so it is NOT a valid jump target. Byte 2 is.
	if p.IsJumpDest(1) {
		t.Error("PC 1 is immediate data, not a JUMPDEST")
	}
	if !p.IsJumpDest(2) {
		t.Error("PC 2 must be a JUMPDEST")
	}
}

func TestBasicBlocks(t *testing.T) {
	a := NewAssembler()
	body := a.NewLabel()
	a.Push(0).Op(CALLDATALOAD) // block 0
	a.JumpI(body)              // ends block 0
	a.Op(STOP)                 // block 1 (fall-through leader)
	a.Bind(body)               // block 2
	a.Push(1).Op(POP).Op(STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	blocks := Disassemble(code).BasicBlocks()
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3: %+v", len(blocks), blocks)
	}
	if blocks[0].Start != 0 {
		t.Errorf("block 0 start = %d", blocks[0].Start)
	}
}

func TestAssemblerLabels(t *testing.T) {
	a := NewAssembler()
	l := a.NewLabel()
	a.Jump(l)
	a.Op(INVALID)
	a.Bind(l)
	a.Op(STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterpreter(code)
	res := in.Execute(CallContext{})
	if res.Reverted || res.Err != nil {
		t.Fatalf("jump over INVALID failed: %+v", res)
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	l := a.NewLabel()
	a.Jump(l) // never bound
	if _, err := a.Assemble(); err == nil {
		t.Error("unbound label must fail")
	}

	b := NewAssembler()
	lb := b.NewLabel()
	b.Bind(lb)
	b.Bind(lb)
	if _, err := b.Assemble(); err == nil {
		t.Error("double bind must fail")
	}

	c := NewAssembler()
	c.Dup(17)
	if _, err := c.Assemble(); err == nil {
		t.Error("DUP17 must fail")
	}
}

func TestPushWordWidths(t *testing.T) {
	a := NewAssembler()
	a.PushWord(ZeroWord)
	a.PushWord(MaxWord)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p := Disassemble(code)
	if p.Instructions[0].Op != PUSH1 {
		t.Errorf("zero should use PUSH1, got %s", p.Instructions[0].Op)
	}
	if p.Instructions[1].Op != PUSH32 {
		t.Errorf("max should use PUSH32, got %s", p.Instructions[1].Op)
	}
}

func TestOpcodeTableProperties(t *testing.T) {
	if got := PUSH4.ImmediateSize(); got != 4 {
		t.Errorf("PUSH4 immediate = %d", got)
	}
	if !JUMP.IsTerminator() || JUMPI.IsTerminator() {
		t.Error("terminator classification broken")
	}
	if DUP1.StackPops() != 1 || DUP1.StackPushes() != 2 {
		t.Error("DUP1 stack effects broken")
	}
	if SWAP3.String() != "SWAP3" {
		t.Errorf("SWAP3 name = %s", SWAP3.String())
	}
}

var SWAP3 = Op(byte(SWAP1) + 2)

// TestDisassembleIntoReuse decodes a sequence of programs into one
// recycled Program — longer, shorter, with a truncated PUSH landing on
// arena bytes a previous decode filled — and checks every decode against
// a fresh Disassemble.
func TestDisassembleIntoReuse(t *testing.T) {
	codes := [][]byte{
		{byte(PUSH32), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
			17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
			byte(PUSH2), 0xff, 0xee, byte(JUMPDEST), byte(STOP)},
		{byte(PUSH4), 0xaa, 0xbb},
		{byte(JUMPDEST), byte(PUSH1), 0x04, byte(CALLDATALOAD), byte(PUSH1 + 7), 0x01},
		nil,
		{0x0c, byte(PUSH1), 0x07, byte(JUMPDEST)},
	}
	var p Program
	for i, code := range codes {
		got := DisassembleInto(&p, code)
		if got != &p {
			t.Fatalf("code %d: DisassembleInto returned another Program", i)
		}
		want := Disassemble(code)
		if len(got.Instructions) != len(want.Instructions) {
			t.Fatalf("code %d: %d instructions, want %d", i, len(got.Instructions), len(want.Instructions))
		}
		for j := range want.Instructions {
			g, w := got.Instructions[j], want.Instructions[j]
			if g.String() != w.String() || !g.Arg.Eq(w.Arg) || g.Truncated != w.Truncated {
				t.Errorf("code %d instruction %d = %v (arg %v), want %v (arg %v)", i, j, g, g.Arg, w, w.Arg)
			}
		}
		for pc := uint64(0); pc <= uint64(len(code)); pc++ {
			gi, gok := got.IndexOf(pc)
			wi, wok := want.IndexOf(pc)
			if gi != wi || gok != wok || got.IsJumpDest(pc) != want.IsJumpDest(pc) {
				t.Errorf("code %d pc %d: index (%d,%v) jumpdest %v, want (%d,%v) %v",
					i, pc, gi, gok, got.IsJumpDest(pc), wi, wok, want.IsJumpDest(pc))
			}
		}
	}
}
