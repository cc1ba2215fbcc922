package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/keccak"
	"sigrec/internal/server"
)

// label is one declared function of a generated contract: the ground
// truth a recovered function must equal.
type label struct {
	sel    abi.Selector
	selHex string
	types  string
	// params, dynamic and nested count the declared parameters, the
	// dynamic ones, and the arrays of arrays, for the composition record.
	params, dynamic, nested int
}

// contract is one generated input with its ground truth. Everything here
// is computed in set-up: the keccak key, the selectors and the canonical
// type lists.
type contract struct {
	code   []byte
	key    [32]byte
	labels []label
	kind   string // single-solidity, single-vyper, deployed, synthesized
}

func newLabel(sig abi.Signature) label {
	sel := sig.Selector()
	l := label{sel: sel, selHex: sel.Hex(), types: sig.TypeList(), params: len(sig.Inputs)}
	for _, t := range sig.Inputs {
		if t.IsDynamic() {
			l.dynamic++
		}
		if (t.Kind == abi.KindArray || t.Kind == abi.KindSlice) && t.Elem != nil &&
			(t.Elem.Kind == abi.KindArray || t.Elem.Kind == abi.KindSlice) {
			l.nested++
		}
	}
	return l
}

// mixConfig sizes one seeded mix of the three generators.
type mixConfig struct {
	// singles is the number of corpus.Generate(DefaultConfig) batches
	// (2000 Solidity + 150 Vyper single-function entries each).
	singles int
	// deployed is the number of corpus.GenerateDeployed contracts.
	deployed int
	// synthesized is the number of corpus.GenerateSynthesized seeds (100
	// ten-function contracts each).
	synthesized int
}

// buildMix generates the inputs for seed, dedupes them by keccak256, and
// shuffles them so every stretch of the sequence carries the same mix.
// Sub-seeds are derived from seed, so the same seed always yields the same
// sequence. The generator calls are independent, so they run on every
// core; their outputs are assembled in a fixed order.
func buildMix(seed int64, cfg mixConfig) ([]contract, map[string]any, error) {
	sub := func(k int) int64 { return seed*1_000_003 + int64(k)*7919 }
	var jobs []func() ([]contract, error)
	for b := 0; b < cfg.singles; b++ {
		jobs = append(jobs, func() ([]contract, error) { return singles(sub(b)) })
	}
	// Deployed contracts come in chunks of 500 so they spread over cores.
	for d := 0; d < cfg.deployed; d += 500 {
		n := min(500, cfg.deployed-d)
		jobs = append(jobs, func() ([]contract, error) { return deployed(sub(100+d), n) })
	}
	for k := 0; k < cfg.synthesized; k++ {
		jobs = append(jobs, func() ([]contract, error) { return synthesized(sub(200000 + k)) })
	}
	parts := make([][]contract, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				parts[i], errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	var out []contract
	seen := make(map[[32]byte]bool)
	dups := 0
	for _, part := range parts {
		for _, c := range part {
			if seen[c.key] {
				dups++
				continue
			}
			seen[c.key] = true
			out = append(out, c)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	comp := composition(out)
	comp["duplicates_dropped"] = dups
	return out, comp, nil
}

// singles is one corpus.Generate(DefaultConfig) batch: single-function
// Solidity and Vyper contracts at the generator's own ambiguity rates.
func singles(seed int64) ([]contract, error) {
	c, err := corpus.Generate(corpus.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	out := make([]contract, 0, len(c.Entries))
	for _, e := range c.Entries {
		kind := "single-solidity"
		if e.Language == corpus.Vyper {
			kind = "single-vyper"
		}
		out = append(out, newContract(e.Code, kind, e.Sig))
	}
	return out, nil
}

// deployed is n multi-function contracts across every solc version,
// optimized and not.
func deployed(seed int64, n int) ([]contract, error) {
	dep, err := corpus.GenerateDeployed(corpus.DeployedConfig{Seed: seed, Contracts: n})
	if err != nil {
		return nil, err
	}
	out := make([]contract, 0, len(dep))
	for _, d := range dep {
		out = append(out, newContract(d.Code, "deployed", d.Functions...))
	}
	return out, nil
}

// synthesized is one corpus.GenerateSynthesized seed: 100 ten-function
// contracts with nested and multi-dimensional arrays.
func synthesized(seed int64) ([]contract, error) {
	entries, err := corpus.GenerateSynthesized(seed)
	if err != nil {
		return nil, err
	}
	// Ten consecutive entries share one contract's bytecode.
	var out []contract
	var sigs []abi.Signature
	for i, e := range entries {
		sigs = append(sigs, e.Sig)
		if i+1 == len(entries) || !bytes.Equal(entries[i+1].Code, e.Code) {
			out = append(out, newContract(e.Code, "synthesized", sigs...))
			sigs = nil
		}
	}
	return out, nil
}

func newContract(code []byte, kind string, sigs ...abi.Signature) contract {
	c := contract{code: code, key: keccak.Sum256(code), kind: kind}
	for _, sig := range sigs {
		c.labels = append(c.labels, newLabel(sig))
	}
	return c
}

// composition summarizes what the inputs exercise: contract kinds,
// functions per contract, the share of dynamic and nested parameters and
// the language split.
func composition(cs []contract) map[string]any {
	kinds := map[string]int{}
	var fns, params, dynamic, nested, vyper int
	for _, c := range cs {
		kinds[c.kind]++
		fns += len(c.labels)
		if c.kind == "single-vyper" {
			vyper++
		}
		for _, l := range c.labels {
			params += l.params
			dynamic += l.dynamic
			nested += l.nested
		}
	}
	return map[string]any{
		"contracts":              len(cs),
		"kinds":                  kinds,
		"functions_per_contract": ratio(float64(fns), float64(len(cs))),
		"dynamic_param_share":    ratio(float64(dynamic), float64(params)),
		"nested_param_share":     ratio(float64(nested), float64(params)),
		"vyper_contract_share":   ratio(float64(vyper), float64(len(cs))),
	}
}

// scoreResult counts the labels a recovery got exactly right: a function
// with the label's selector and the same canonical type list.
func scoreResult(labels []label, fns []core.RecoveredFunction) int {
	ok := 0
	for _, l := range labels {
		for i := range fns {
			if fns[i].Selector == l.sel {
				if fns[i].TypeList() == l.types {
					ok++
				}
				break
			}
		}
	}
	return ok
}

// scoreResponse is scoreResult over the serving layer's JSON schema.
func scoreResponse(labels []label, fns []server.FunctionResult) int {
	ok := 0
	for _, l := range labels {
		for i := range fns {
			if fns[i].Selector == l.selHex {
				if fns[i].Types == l.types {
					ok++
				}
				break
			}
		}
	}
	return ok
}

// setupMedian runs build n times and returns the last state with the
// median build time in seconds. Every earlier state is torn down and
// collected first, so repeated set-up neither shares warm state nor
// inflates the memory high-water mark.
func setupMedian[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		st, err := build()
		if err != nil {
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			return st, median(times), nil
		}
		teardown(st)
	}
	return zero, 0, fmt.Errorf("set-up: no repetitions")
}
