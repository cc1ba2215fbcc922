package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
)

// regionCorpus is the seeded corpus plus the distinct multi-function
// contracts of a few synthesized seeds, so the parallel path fans out.
func regionCorpus(t *testing.T) [][]byte {
	t.Helper()
	c, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	var codes [][]byte
	for _, e := range c.Entries {
		codes = append(codes, e.Code)
	}
	seen := make(map[string]bool)
	for _, seed := range []int64{1, 2, 3} {
		synth, err := corpus.GenerateSynthesized(seed)
		if err != nil {
			t.Fatalf("synthesized corpus: %v", err)
		}
		for _, e := range synth {
			if k := string(e.Code); !seen[k] {
				seen[k] = true
				codes = append(codes, e.Code)
			}
		}
	}
	return codes
}

// unpooledRecover recovers code the way recoverUncached does, but every
// trace lives in memory that is never recycled: a fresh Program and a
// fresh region per selector. (The dispatcher walk still uses the pool;
// its selectors are copied out.)
func unpooledRecover(code []byte) (Result, error) {
	program := evm.Disassemble(code)
	lim := defaultLimits()
	sels, trunc := extractSelectors(program, lim)
	res := Result{Truncated: trunc}
	if len(sels) == 0 {
		return res, ErrNoFunctions
	}
	for _, sel := range sels {
		tr := traceFunction(program, sel, lim)
		d := Infer(tr)
		res.Rules.Add(d.Stats)
		res.Functions = append(res.Functions, RecoveredFunction{
			Selector:   abi.Selector(sel),
			Inputs:     d.Types,
			ParamRules: d.ParamRules,
			Language:   d.Language,
			Truncated:  tr.Truncated,
		})
		res.Truncated = res.Truncated || tr.Truncated
	}
	return res, nil
}

// TestRegionPoisonedRecovery recovers the corpus from several goroutines
// with released regions and programs scribbled over, keeping every Result,
// then checks each kept Result against a recovery that never recycles
// memory. A Result that aliased recycled memory, or a recovery that read
// its region after releasing it, would show the poison. Under -race (make
// race) a region reused while another goroutine still reads it fails
// outright.
func TestRegionPoisonedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("recovers the full seeded corpus")
	}
	codes := regionCorpus(t)
	poisonRegions = true
	defer func() { poisonRegions = false }()
	const callers = 4
	for _, workers := range []int{0, 1} {
		kept := make([]Result, len(codes))
		errs := make([]error, len(codes))
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(codes); i += callers {
					kept[i], errs[i] = RecoverContext(context.Background(), codes[i], Options{SelectorWorkers: workers})
				}
			}(c)
		}
		wg.Wait()
		recovered := 0
		for i, code := range codes {
			want, wantErr := unpooledRecover(code)
			if errs[i] != wantErr || !reflect.DeepEqual(kept[i], want) {
				t.Fatalf("workers %d, contract %d: kept %+v (%v), unpooled %+v (%v)",
					workers, i, kept[i], errs[i], want, wantErr)
			}
			recovered += len(kept[i].Functions)
		}
		if recovered < len(codes) {
			t.Fatalf("workers %d: %d functions over %d contracts; coverage too thin", workers, recovered, len(codes))
		}
	}
}

// TestRecoverSteadyStateAllocs bounds the allocations of one warm cold
// recovery (sequential selectors, no cache, no tracing) of a fixed
// ten-function contract. Before recoveries recycled their regions and
// programs this measured 2037 allocs; with them, 1486. Under -race,
// sync.Pool drops a random quarter of what is put back, which measured
// 1629. The bound of 1700 is 14% over the pooled figure and covers the
// race build; with regions never returned to the pool the count is 1864,
// which fails it. (A disassembly is four allocations, so the count cannot
// see whether programs are recycled.)
func TestRecoverSteadyStateAllocs(t *testing.T) {
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatalf("synthesized corpus: %v", err)
	}
	code := synth[0].Code
	opts := Options{SelectorWorkers: 1}
	res, err := RecoverContext(context.Background(), code, opts)
	if err != nil || len(res.Functions) < 5 {
		t.Fatalf("test setup: %d functions, err %v", len(res.Functions), err)
	}
	for i := 0; i < 50; i++ { // warm the pools
		RecoverContext(context.Background(), code, opts)
	}
	const bound = 1700
	got := testing.AllocsPerRun(200, func() {
		RecoverContext(context.Background(), code, opts)
	})
	t.Logf("%v allocs per recovery of %d functions", got, len(res.Functions))
	if got > bound {
		t.Errorf("%v allocs per recovery, want <= %d", got, bound)
	}
}
