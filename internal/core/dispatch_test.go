package core

import (
	"slices"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
	"sigrec/internal/solc"
	"sigrec/internal/vyperc"
)

// walkDispatcher runs the dispatcher walk (symbolic selector) under the
// default budgets and returns the finished engine.
func walkDispatcher(t *testing.T, code []byte) *tase {
	t.Helper()
	eng := newTASE(evm.Disassemble(code), nil, defaultLimits())
	eng.run()
	return eng
}

func selectorsOf(sigs []abi.Signature) [][4]byte {
	out := make([][4]byte, len(sigs))
	for i, s := range sigs {
		out[i] = s.Selector()
	}
	return out
}

func dispatchSigs(t *testing.T, n int) []abi.Signature {
	t.Helper()
	types := []string{
		"(uint256)", "(address,uint256)", "(bytes)", "(bool)",
		"(uint8[3])", "(uint256[])", "(string)", "(int64)", "(bytes32,uint256)",
	}
	sigs := make([]abi.Signature, n)
	for i := range sigs {
		sig, err := abi.ParseSignature(string(rune('a'+i)) + "fn" + types[i%len(types)])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	return sigs
}

func compileSolSigs(t *testing.T, sigs []abi.Signature, version solc.Version) []byte {
	t.Helper()
	fns := make([]solc.Function, len(sigs))
	for i, s := range sigs {
		fns[i] = solc.Function{Sig: s, Mode: solc.External}
	}
	code, err := solc.Compile(solc.Contract{Functions: fns}, solc.Config{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestDispatcherWalkShapes pins the selector list, in order, for each
// dispatcher shape the compilers emit. The binary solc dispatcher's order is
// pinned by TestBinaryDispatchRecovery.
func TestDispatcherWalkShapes(t *testing.T) {
	linear := dispatchSigs(t, 4)
	var vySigs []abi.Signature
	for _, s := range []string{"a(uint256)", "b(address,uint256)", "c(bool)", "d(bytes32)"} {
		sig, err := abi.ParseSignature(s)
		if err != nil {
			t.Fatal(err)
		}
		vySigs = append(vySigs, sig)
	}
	vyFns := make([]vyperc.Function, len(vySigs))
	for i, s := range vySigs {
		vyFns[i] = vyperc.Function{Sig: s}
	}
	vyCode, err := vyperc.Compile(vyperc.Contract{Functions: vyFns}, vyperc.Config{Version: vyperc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		code []byte
		want []abi.Signature
	}{
		{"solc-linear", compileSolSigs(t, linear, solc.DefaultVersion()), linear},
		{"vyperc", vyCode, vySigs},
		{"solc-legacy-div", compileSolSigs(t, linear, solc.LegacyVersion()), linear},
	}
	for _, c := range cases {
		sels, trunc := extractSelectors(evm.Disassemble(c.code), defaultLimits())
		if want := selectorsOf(c.want); !slices.Equal(sels, want) {
			t.Errorf("%s: selectors %x, want %x", c.name, sels, want)
		}
		if trunc {
			t.Errorf("%s: dispatcher walk truncated", c.name)
		}
	}
}

// TestDispatcherWalkSkipsBodies: the walk's cost is the dispatcher's alone,
// so a contract whose body is far costlier to explore walks identically.
func TestDispatcherWalkSkipsBodies(t *testing.T) {
	cheap, _ := deepNestedCode(t, 1)
	costly, _ := deepNestedCode(t, 2)
	a, b := walkDispatcher(t, cheap), walkDispatcher(t, costly)
	if a.totSteps != b.totSteps || a.paths != b.paths {
		t.Errorf("walk steps/paths %d/%d (width 1) vs %d/%d (width 2)",
			a.totSteps, a.paths, b.totSteps, b.paths)
	}
	if a.trunc || b.trunc {
		t.Error("dispatcher walk truncated")
	}
}

// TestSynthesizedBinaryDispatchKeepsAllSelectors: these ten-function
// binary-dispatch contracts have bodies costly enough that a walk exploring
// them ran out of paths before the last binary-search leaves.
//
// Each contract also has one function whose own per-selector trace exhausts
// its path budget, so the recovery is still flagged Truncated, for that
// function alone: seed 4 rweok538(uint256[],address[],bool[],int80[]),
// seed 6 encax602(int88[],address[],bool[],uint168[],bool), seed 10
// motvr449(string,string,bool[],address[],uint256[]) and seed 11
// xlxbj453(uint96[],uint48[],uint40[],bytes,int248[]).
func TestSynthesizedBinaryDispatchKeepsAllSelectors(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		first int
		// costly is the entry whose own trace runs out of paths.
		costly int
	}{{4, 530, 538}, {6, 600, 602}, {10, 440, 449}, {11, 450, 453}} {
		entries, err := corpus.GenerateSynthesized(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		group := entries[c.first : c.first+10]
		var want []abi.Signature
		for _, e := range group {
			if !slices.Equal(e.Code, group[0].Code) {
				t.Fatalf("seed %d: entries %d.. do not share one contract", c.seed, c.first)
			}
			want = append(want, e.Sig)
		}
		sels, trunc := extractSelectors(evm.Disassemble(group[0].Code), defaultLimits())
		if trunc {
			t.Errorf("seed %d: dispatcher walk truncated", c.seed)
		}
		got := slices.Clone(sels)
		wantSels := selectorsOf(want)
		cmpSel := func(a, b [4]byte) int { return slices.Compare(a[:], b[:]) }
		slices.SortFunc(got, cmpSel)
		slices.SortFunc(wantSels, cmpSel)
		if !slices.Equal(got, wantSels) {
			t.Errorf("seed %d: %d selectors %x, want %d %x", c.seed, len(got), got, len(wantSels), wantSels)
		}
		res, err := Recover(group[0].Code)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Functions) != len(want) || !res.Truncated {
			t.Errorf("seed %d: %d functions, Truncated %v; want %d, true", c.seed, len(res.Functions), res.Truncated, len(want))
		}
		costly := entries[c.costly].Sig.Selector()
		for _, f := range res.Functions {
			if f.Truncated != (f.Selector == costly) {
				t.Errorf("seed %d: %s Truncated %v", c.seed, f.Selector, f.Truncated)
			}
		}
	}
}

// TestDispatcherWalkBranchMatcher: a recognized dispatcher test follows
// only its no-match side (ISZEROs flip which side that is) and records the
// guard like a concrete branch; anything else forks both sides.
func TestDispatcherWalkBranchMatcher(t *testing.T) {
	sel := []byte{0xa9, 0x05, 0x9c, 0xbb}
	cases := []struct {
		name string
		cond func(a *evm.Assembler)
		// taken is the side the walk follows alone; fork means both.
		taken, fork bool
	}{
		{"eq", func(a *evm.Assembler) { a.Dup(1).PushBytes(sel).Op(evm.EQ) }, false, false},
		{"eq-swapped", func(a *evm.Assembler) { a.PushBytes(sel).Dup(2).Op(evm.EQ) }, false, false},
		{"iszero-eq", func(a *evm.Assembler) { a.Dup(1).PushBytes(sel).Op(evm.EQ).Op(evm.ISZERO) }, true, false},
		{"iszero-iszero-eq", func(a *evm.Assembler) {
			a.Dup(1).PushBytes(sel).Op(evm.EQ).Op(evm.ISZERO).Op(evm.ISZERO)
		}, false, false},
		{"wide-constant", func(a *evm.Assembler) {
			a.Dup(1).PushBytes([]byte{0x01, 0, 0, 0, 0}).Op(evm.EQ)
		}, false, true},
		{"non-selector-operand", func(a *evm.Assembler) {
			a.Push(4).Op(evm.CALLDATALOAD).PushBytes(sel).Op(evm.EQ)
		}, false, true},
		{"gt-split", func(a *evm.Assembler) { a.Dup(1).PushBytes(sel).Op(evm.GT) }, false, true},
	}
	for _, c := range cases {
		a := evm.NewAssembler()
		a.Push(0).Op(evm.CALLDATALOAD).Push(0xe0).Op(evm.SHR)
		c.cond(a)
		jump := a.NewLabel()
		a.JumpI(jump)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.STOP)
		a.Bind(jump)
		a.Push(68).Op(evm.CALLDATALOAD).Op(evm.STOP)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		eng := walkDispatcher(t, code)
		loads := map[uint64]Event{}
		for _, ev := range findCDL(eng.events) {
			if off, ok := ev.Off.ConstUint(); ok && off != 0 {
				loads[off] = ev
			}
		}
		if c.fork {
			_, fall := loads[36]
			_, jumped := loads[68]
			if eng.paths == 1 || !fall || !jumped {
				t.Errorf("%s: paths %d, loads %v: want a fork into both sides", c.name, eng.paths, loads)
			}
			continue
		}
		want, skip := uint64(36), uint64(68)
		if c.taken {
			want, skip = skip, want
		}
		ev, followed := loads[want]
		if _, entered := loads[skip]; eng.paths != 1 || !followed || entered {
			t.Errorf("%s: paths %d, loads %v: want only the load at %d", c.name, eng.paths, loads, want)
			continue
		}
		if len(ev.Guards) != 1 || ev.Guards[0].Taken != c.taken {
			t.Errorf("%s: guards %+v, want one with Taken=%v", c.name, ev.Guards, c.taken)
		}
		if eng.trunc || eng.pruned != 0 {
			t.Errorf("%s: trunc %v pruned %d", c.name, eng.trunc, eng.pruned)
		}
	}
}
