package core

import (
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/evm"
)

// buildAndTrace assembles a raw function body (no dispatcher) and traces it
// with a dummy selector override disabled.
func buildAndTrace(t *testing.T, build func(a *evm.Assembler)) []Event {
	t.Helper()
	a := evm.NewAssembler()
	build(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	eng := newTASE(evm.Disassemble(code), nil, limits{}, newRegion())
	return eng.run()
}

func findCDL(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == EvCDL {
			out = append(out, ev)
		}
	}
	return out
}

func TestTASERecordsConstantLoads(t *testing.T) {
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
	})
	cdls := findCDL(events)
	if len(cdls) != 2 {
		t.Fatalf("%d CDL events", len(cdls))
	}
	if off, _ := cdls[0].Off.ConstUint(); off != 4 {
		t.Errorf("first load at %d", off)
	}
	if off, _ := cdls[1].Off.ConstUint(); off != 36 {
		t.Errorf("second load at %d", off)
	}
}

func TestTASEResolvesMemoryThroughCopy(t *testing.T) {
	// CALLDATACOPY 64 bytes from offset 4 to memory 0x100, then MLOAD
	// 0x120 and mask it: the mask event must reference cd[0x24].
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(64).Push(4).Push(0x100).Op(evm.CALLDATACOPY)
		a.Push(0x120).Op(evm.MLOAD)
		a.PushBytes([]byte{0xff}).Op(evm.AND)
		a.Op(evm.POP)
		a.Op(evm.STOP)
	})
	var sawMask bool
	for _, ev := range events {
		if ev.Kind != EvOp || ev.Op != evm.AND {
			continue
		}
		sawMask = true
		val := ev.Args[1]
		if val.Kind != KindCData {
			t.Fatalf("masked value is %v, want a call-data load", val)
		}
		d, ok := descOfUncached(val.Args[0])
		if !ok || d.c != 0x24 || len(d.terms) != 0 {
			t.Errorf("resolved offset = %+v, want constant 0x24", d)
		}
	}
	if !sawMask {
		t.Fatal("no AND event recorded")
	}
}

func TestTASEForksOnSymbolicBranch(t *testing.T) {
	// if calldataload(4) != 0 { read 36 } else { read 68 }: both sides
	// must be explored.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		taken := a.NewLabel()
		a.Push(4).Op(evm.CALLDATALOAD)
		a.JumpI(taken)
		a.Push(68).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
		a.Bind(taken)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
	})
	offsets := map[uint64]bool{}
	for _, ev := range findCDL(events) {
		if off, ok := ev.Off.ConstUint(); ok {
			offsets[off] = true
		}
	}
	for _, want := range []uint64{4, 36, 68} {
		if !offsets[want] {
			t.Errorf("offset %d not explored (%v)", want, offsets)
		}
	}
}

func TestTASEGuardIntervals(t *testing.T) {
	// A loop body load must carry the loop guard; code after the loop must
	// not be controlled by it.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		// num := calldataload(4); for i := 0; i < num; i++ { load 36 }
		a.Push(4).Op(evm.CALLDATALOAD) // num on stack
		a.Push(0)                      // i
		top := a.NewLabel()
		exit := a.NewLabel()
		a.Bind(top)
		a.Dup(2).Dup(2).Op(evm.LT) // i < num
		a.Op(evm.ISZERO)
		a.JumpI(exit)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(1).Op(evm.ADD)
		a.Jump(top)
		a.Bind(exit)
		a.Push(100).Op(evm.CALLDATALOAD).Op(evm.POP) // after the loop
		a.Op(evm.STOP)
	})
	var inLoop, after *Event
	for i := range findCDL(events) {
		ev := findCDL(events)[i]
		if off, ok := ev.Off.ConstUint(); ok {
			switch off {
			case 36:
				e := ev
				inLoop = &e
			case 100:
				e := ev
				after = &e
			}
		}
	}
	if inLoop == nil || after == nil {
		t.Fatal("loads not recorded")
	}
	controlled := func(ev *Event) int {
		n := 0
		seen := map[uint64]bool{}
		for _, g := range ev.Guards {
			if g.Controls(ev.PC) && !seen[g.PC] {
				if _, ok := loopBound(g); ok {
					seen[g.PC] = true
					n++
				}
			}
		}
		return n
	}
	if controlled(inLoop) == 0 {
		t.Error("loop body load carries no loop guard")
	}
	if controlled(after) != 0 {
		t.Error("post-loop load is wrongly controlled by the loop guard")
	}
}

func TestTASEStopsOnComputedJump(t *testing.T) {
	// A jump target derived from inputs must stop the path (the paper's
	// documented restriction), not loop or crash.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(4).Op(evm.CALLDATALOAD)
		a.Op(evm.JUMP)
	})
	if len(findCDL(events)) != 1 {
		t.Errorf("%d CDL events", len(findCDL(events)))
	}
}

func TestTASEVisitBudgetTerminates(t *testing.T) {
	// A symbolic-bound loop must terminate exploration via the visit
	// budget, recording at least two iterations (for stride detection).
	events := buildAndTrace(t, func(a *evm.Assembler) {
		numSlot := uint64(0x40000)
		iSlot := uint64(0x40020)
		a.Push(4).Op(evm.CALLDATALOAD)
		a.Push(numSlot).Op(evm.MSTORE)
		a.Push(0).Push(iSlot).Op(evm.MSTORE)
		top := a.NewLabel()
		exit := a.NewLabel()
		a.Bind(top)
		a.Push(numSlot).Op(evm.MLOAD)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Op(evm.LT).Op(evm.ISZERO)
		a.JumpI(exit)
		// load 36 + 32*i
		a.Push(36)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Push(32).Op(evm.MUL)
		a.Op(evm.ADD)
		a.Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Push(1).Op(evm.ADD)
		a.Push(iSlot).Op(evm.MSTORE)
		a.Jump(top)
		a.Bind(exit)
		a.Op(evm.STOP)
	})
	offs := map[uint64]bool{}
	for _, ev := range findCDL(events) {
		if off, ok := ev.Off.ConstUint(); ok {
			offs[off] = true
		}
	}
	if !offs[36] || !offs[68] {
		t.Errorf("iterations not unrolled twice: %v", offs)
	}
}

func TestTraceFunctionSelectorOverride(t *testing.T) {
	// With the selector pinned, the dispatcher folds concretely: only the
	// selected body's loads appear.
	sigA, _ := abi.ParseSignature("alpha(uint256)")
	sigB, _ := abi.ParseSignature("beta(uint256,uint256)")
	a := evm.NewAssembler()
	bodyA := a.NewLabel()
	bodyB := a.NewLabel()
	a.Push(0).Op(evm.CALLDATALOAD).Push(0xe0).Op(evm.SHR)
	selA, selB := sigA.Selector(), sigB.Selector()
	a.Dup(1).PushBytes(selA[:]).Op(evm.EQ).JumpI(bodyA)
	a.Dup(1).PushBytes(selB[:]).Op(evm.EQ).JumpI(bodyB)
	a.Op(evm.STOP)
	a.Bind(bodyA)
	a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	a.Bind(bodyB)
	a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP)
	a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	program := evm.Disassemble(code)
	trA := TraceFunction(program, selA)
	trB := TraceFunction(program, selB)
	if n := len(findCDL(trA.Events)); n != 1 {
		t.Errorf("alpha: %d loads, want 1", n)
	}
	if n := len(findCDL(trB.Events)); n != 2 {
		t.Errorf("beta: %d loads, want 2", n)
	}
}
