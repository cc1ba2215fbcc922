package core

import (
	"slices"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/evm"
	"sigrec/internal/solc"
	"sigrec/internal/vyperc"
)

// compileSol builds a single-function Solidity contract with clue-rich
// default usage.
func compileSol(t *testing.T, sigStr string, mode solc.Mode, cfg solc.Config) []byte {
	t.Helper()
	sig, err := abi.ParseSignature(sigStr)
	if err != nil {
		t.Fatalf("ParseSignature(%q): %v", sigStr, err)
	}
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: mode}}}, cfg)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sigStr, err)
	}
	return code
}

// recoverOne runs full recovery and returns the single function.
func recoverOne(t *testing.T, code []byte) RecoveredFunction {
	t.Helper()
	res, err := Recover(code)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(res.Functions) != 1 {
		t.Fatalf("recovered %d functions, want 1", len(res.Functions))
	}
	return res.Functions[0]
}

// TestRoundTripSolidity is the headline invariant: with clue-rich bodies,
// compile(sig) then recover == sig, for every supported shape, both modes,
// multiple dialects.
func TestRoundTripSolidity(t *testing.T) {
	sigs := []string{
		"f(uint256)", "f(uint8)", "f(uint32)", "f(uint160)", "f(uint256,uint256)",
		"f(int8)", "f(int64)", "f(int256)",
		"f(address)", "f(bool)", "f(bytes1)", "f(bytes4)", "f(bytes32)",
		"f(uint256[3])", "f(uint8[2])", "f(uint256[3][2])", "f(uint8[2][3][2])",
		"f(uint256[])", "f(uint8[])", "f(address[])", "f(uint256[3][])",
		"f(bytes)", "f(string)",
		"f(uint256[][])", "f(uint8[][])",
		"f(uint256,address)", "f(uint8[],address)",
		"f(bytes,uint256)", "f(uint256,bytes)",
		"f(bool,string,uint8[])",
		"f(uint256[2],uint256)",
	}
	configs := []solc.Config{
		{Version: solc.DefaultVersion()},
		{Version: solc.LegacyVersion()},
		{Version: solc.DefaultVersion(), Optimize: true},
	}
	for _, sigStr := range sigs {
		want, _ := abi.ParseSignature(sigStr)
		for _, mode := range []solc.Mode{solc.Public, solc.External} {
			for ci, cfg := range configs {
				needsV2 := false
				for _, in := range want.Inputs {
					if in.Kind == abi.KindTuple || in.IsDynamic() && in.Kind == abi.KindSlice && in.Elem.IsDynamic() {
						needsV2 = true
					}
				}
				if needsV2 && !cfg.Version.ABIEncoderV2 {
					continue
				}
				code := compileSol(t, sigStr, mode, cfg)
				rec := recoverOne(t, code)
				if rec.Selector != want.Selector() {
					t.Errorf("%s %s cfg%d: selector %s, want %s",
						sigStr, mode, ci, rec.Selector, want.Selector())
					continue
				}
				got := abi.Signature{Name: "f", Inputs: rec.Inputs}
				if !got.EqualTypes(want) {
					t.Errorf("%s %s cfg%d: recovered %s", sigStr, mode, ci, got.TypeList())
				}
				if rec.Language != LangSolidity {
					t.Errorf("%s %s cfg%d: language %s", sigStr, mode, ci, rec.Language)
				}
			}
		}
	}
}

// TestRoundTripStructs covers dynamic structs and struct-typed parameters.
func TestRoundTripStructs(t *testing.T) {
	tests := []struct {
		sig  string
		want string // expected recovery (static structs flatten: paper case 5)
	}{
		{"f((uint256[],uint256))", "f((uint256[],uint256))"},
		{"f((bytes,bool))", "f((bytes,bool))"},
		{"f((uint256,uint256))", "f(uint256,uint256)"}, // static struct flattens
		{"f((uint256[],address))", "f((uint256[],address))"},
	}
	for _, tc := range tests {
		for _, mode := range []solc.Mode{solc.Public, solc.External} {
			code := compileSol(t, tc.sig, mode, solc.Config{Version: solc.DefaultVersion()})
			rec := recoverOne(t, code)
			want, _ := abi.ParseSignature(tc.want)
			got := abi.Signature{Name: "f", Inputs: rec.Inputs}
			if !got.EqualTypes(want) {
				t.Errorf("%s %s: recovered %s, want %s", tc.sig, mode, got.TypeList(), want.TypeList())
			}
		}
	}
}

// TestRoundTripVyper covers the Vyper type system.
func TestRoundTripVyper(t *testing.T) {
	sigs := []string{
		"f(uint256)", "f(bool)", "f(address)", "f(int128)", "f(bytes32)",
		"f(decimal)", "f(uint256[3])", "f(address[2])", "f(uint256[2][2])",
		"f(bytes[32])", "f(string[32])",
		"f(uint256,bool)", "f(decimal,address)",
	}
	for _, sigStr := range sigs {
		want, _ := abi.ParseSignature(sigStr)
		for _, cfg := range []vyperc.Config{{Version: vyperc.DefaultVersion()}, {Version: vyperc.Versions()[0]}} {
			code, err := vyperc.Compile(vyperc.Contract{Functions: []vyperc.Function{{Sig: want}}}, cfg)
			if err != nil {
				t.Fatalf("vyperc(%q): %v", sigStr, err)
			}
			rec := recoverOne(t, code)
			got := abi.Signature{Name: "f", Inputs: rec.Inputs}
			if !got.EqualTypes(want) {
				t.Errorf("%s (%s): recovered %s", sigStr, cfg.Version.Name, got.TypeList())
			}
			if sigStr != "f(uint256)" && sigStr != "f(bytes32)" && sigStr != "f(uint256[3])" &&
				sigStr != "f(uint256[2][2])" && rec.Language != LangVyper {
				t.Errorf("%s: language %s, want vyper", sigStr, rec.Language)
			}
		}
	}
}

// TestMultiFunctionContract verifies dispatcher extraction and per-function
// inference on a contract with several functions.
func TestMultiFunctionContract(t *testing.T) {
	sigStrs := []string{
		"transfer(address,uint256)",
		"approve(address,uint256)",
		"batch(uint256[],bytes)",
		"ping()",
	}
	var fns []solc.Function
	for _, s := range sigStrs {
		sig, _ := abi.ParseSignature(s)
		fns = append(fns, solc.Function{Sig: sig, Mode: solc.External})
	}
	code, err := solc.Compile(solc.Contract{Functions: fns}, solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Functions) != len(sigStrs) {
		t.Fatalf("recovered %d functions, want %d", len(res.Functions), len(sigStrs))
	}
	for i, s := range sigStrs {
		want, _ := abi.ParseSignature(s)
		if res.Functions[i].Selector != want.Selector() {
			t.Errorf("function %d: selector %s, want %s", i, res.Functions[i].Selector, want.Selector())
		}
		got := abi.Signature{Name: want.Name, Inputs: res.Functions[i].Inputs}
		if !got.EqualTypes(want) {
			t.Errorf("%s: recovered %s", s, got.TypeList())
		}
	}
	if res.Rules.Total() == 0 {
		t.Error("no rules recorded")
	}
}

// TestKnownAmbiguities pins the paper's case-5 failure modes: they must
// fail in exactly the documented way.
func TestKnownAmbiguities(t *testing.T) {
	// bytes without individual byte access is recovered as string.
	sig, _ := abi.ParseSignature("f(bytes)")
	plan := []solc.Usage{{ItemAccess: true}} // no ByteAccess
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{
		{Sig: sig, Mode: solc.Public, Plan: plan},
	}}, solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	rec := recoverOne(t, code)
	if len(rec.Inputs) != 1 || rec.Inputs[0].Kind != abi.KindString {
		t.Errorf("clueless bytes recovered as %v, want string", rec.Inputs)
	}

	// Optimized external static array with constant index flattens to a
	// single uint256 (no bound checks to see).
	sig2, _ := abi.ParseSignature("f(uint256[3])")
	plan2 := []solc.Usage{{ItemAccess: true, ConstIndex: true, Math: true}}
	code2, err := solc.Compile(solc.Contract{Functions: []solc.Function{
		{Sig: sig2, Mode: solc.External, Plan: plan2},
	}}, solc.Config{Version: solc.DefaultVersion(), Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := recoverOne(t, code2)
	if len(rec2.Inputs) != 1 || rec2.Inputs[0].Kind != abi.KindUint {
		t.Errorf("optimized const-index array recovered as %v, want a lone uint", rec2.Inputs)
	}
}

// TestSelectorExtractionEdgeCases exercises failure paths.
func TestSelectorExtractionEdgeCases(t *testing.T) {
	if _, err := Recover(nil); err == nil {
		t.Error("empty bytecode must fail")
	}
	// Code with no dispatcher.
	if _, err := Recover([]byte{0x60, 0x01, 0x50, 0x00}); err == nil {
		t.Error("dispatcherless bytecode must fail")
	}
}

// TestRuleStatsPlumbing verifies per-rule counting.
func TestRuleStatsPlumbing(t *testing.T) {
	code := compileSol(t, "f(uint8,bytes)", solc.Public, solc.Config{Version: solc.DefaultVersion()})
	sig, _ := abi.ParseSignature("f(uint8,bytes)")
	_, stats := RecoverFunction(code, sig.Selector())
	if stats.Count(R1) == 0 {
		t.Error("R1 must fire for the bytes parameter")
	}
	if stats.Count(R4) == 0 {
		t.Error("R4 must fire for the uint8 head slot")
	}
	if stats.Count(R11) == 0 {
		t.Error("R11 must fire to refine uint8")
	}
	if stats.Count(R8) == 0 {
		t.Error("R8 must fire for the public bytes copy")
	}
	if stats.Count(R17) == 0 {
		t.Error("R17 must fire for the byte access")
	}
}

// TestBinaryDispatchRecovery: function ids behind a binary-search
// dispatcher (GT splits) must all be extracted, in the walk's order, and
// typed.
func TestBinaryDispatchRecovery(t *testing.T) {
	sigs := dispatchSigs(t, 9)
	code := compileSolSigs(t, sigs, solc.DefaultVersion())
	// solc splits the selectors, sorted, at the middle until at most three
	// remain, falling through to the upper half and jumping to the lower.
	// The walk runs each path to its end first (the upper halves' EQ
	// tests), then the lower halves it forked, earliest fork first.
	bySel := slices.Clone(sigs)
	slices.SortFunc(bySel, func(a, b abi.Signature) int {
		sa, sb := a.Selector(), b.Selector()
		return slices.Compare(sa[:], sb[:])
	})
	var walkOrder func(group []abi.Signature) []abi.Signature
	walkOrder = func(group []abi.Signature) []abi.Signature {
		var forks [][]abi.Signature
		for len(group) > 3 {
			mid := len(group) / 2
			forks = append(forks, group[:mid])
			group = group[mid:]
		}
		out := slices.Clone(group)
		for _, f := range forks {
			out = append(out, walkOrder(f)...)
		}
		return out
	}
	sels, trunc := extractSelectors(evm.Disassemble(code), defaultLimits())
	if want := selectorsOf(walkOrder(bySel)); !slices.Equal(sels, want) || trunc {
		t.Errorf("selectors %x (truncated %v), want %x", sels, trunc, want)
	}

	res, err := Recover(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Functions) != len(sigs) {
		t.Fatalf("recovered %d of %d functions", len(res.Functions), len(sigs))
	}
	want := make(map[abi.Selector]string)
	for _, s := range sigs {
		want[s.Selector()] = s.TypeList()
	}
	for _, f := range res.Functions {
		wantTL, ok := want[f.Selector]
		if !ok {
			t.Errorf("unexpected selector %s", f.Selector)
			continue
		}
		if got := f.TypeList(); got != wantTL {
			t.Errorf("%s: recovered %s, want %s", f.Selector, got, wantTL)
		}
	}
}
