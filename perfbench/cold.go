package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/evm"
)

// recover-cold inputs per seed: 32 DefaultConfig batches of single-function
// Solidity/Vyper entries at the generator's own ambiguity rates, 8000
// multi-function contracts across every solc version, optimized and not,
// and 32 seeds of ten-function synthesized contracts with nested and
// multi-dimensional arrays: about 80k distinct contracts. A run cycles
// through them in order once it has seen them all ("cycles_through_inputs"
// in the composition record).
var coldMix = mixConfig{singles: 32, deployed: 8000, synthesized: 32}

const coldSetups = 3

// coldSegments is the number of equal time slices a run is split into;
// each holds thousands of recoveries.
const coldSegments = 10

// coldWorker is one closed-loop caller's tallies.
type coldWorker struct {
	lat                          []float64       // ms per contract
	end                          []time.Duration // completion, from the phase start
	ops, failed, labels, correct int64

	// traced-run layer timings (µs) and counts
	disasm, dispatch, explore, infer []float64
	instructions, selectors, rules   int64
	// layerSum is the layers' own time, tracedSum the layered path's
	// wall time with its clock reads, e2eSum sequential RecoverContext's.
	layerSum, tracedSum, e2eSum time.Duration
}

func runRecoverCold(cfg runConfig) (*outcome, error) {
	setups := coldSetups
	if cfg.trace {
		setups = 1
	}
	var comp map[string]any
	inputs, setupS, err := setupMedian(setups, func() ([]contract, error) {
		cs, c, err := buildMix(cfg.seed, coldMix)
		comp = c
		return cs, err
	}, func([]contract) {})
	if err != nil {
		return nil, err
	}
	callers := runtime.NumCPU()
	comp["callers"] = callers
	comp["loop"] = "closed"
	out := &outcome{values: map[string]float64{}, composition: comp}
	var next atomic.Int64

	if !cfg.trace {
		window := time.Duration(cfg.seconds * float64(time.Second))
		cpu0 := cpuTime()
		ws, elapsed := coldPhase(inputs, &next, callers, window, false, out)
		cpu := cpuTime() - cpu0
		var ops int64
		for _, w := range ws {
			ops += w.ops
		}
		lat, counts := coldSlices(ws, window)
		seg := window.Seconds() / coldSegments
		out.values["setup_s"] = setupS
		out.values["throughput_per_s"] = median(counts) / seg
		out.values["latency_p50_ms"] = segmentMedian(lat, coldSegments, p50)
		out.values["latency_p99_ms"] = segmentMedian(lat, coldSegments, p99)
		out.values["cpu_ms_per_op"] = ms(cpu) / float64(ops)
		comp["latency_samples"] = len(lat)
		comp["segments"] = coldSegments
		comp["throughput_whole_window_per_s"] = float64(ops) / elapsed.Seconds()
		comp["cycles_through_inputs"] = float64(ops) / float64(len(inputs))
		return out, nil
	}

	// Traced run. Phase A is untraced: it meters the program's own counters
	// and the allocator per recovery. Phase B times each layer's public
	// function on the same kind of traffic and checks the layered path
	// returns what RecoverContext returns. The layered path runs selectors
	// one after another, so phase B's RecoverContext does too
	// (SelectorWorkers 1): the ratios below compare like with like.
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	reg0, alloc0 := readCounters(core.Metrics()), readAlloc()
	wsA, _ := coldPhase(inputs, &next, callers, half, false, out)
	reg1, alloc1 := readCounters(core.Metrics()), readAlloc()
	wsB, _ := coldPhase(inputs, &next, callers, half, true, out)

	var opsA int64
	for _, w := range wsA {
		opsA += w.ops
	}
	v := out.values
	allocPerOp(v, alloc0, alloc1, opsA)
	coreCounters(v, reg0, reg1, float64(opsA))

	var c coldWorker
	var opsB int64
	for _, w := range wsB {
		c.disasm = append(c.disasm, w.disasm...)
		c.dispatch = append(c.dispatch, w.dispatch...)
		c.explore = append(c.explore, w.explore...)
		c.infer = append(c.infer, w.infer...)
		c.instructions += w.instructions
		c.selectors += w.selectors
		c.rules += w.rules
		c.layerSum += w.layerSum
		c.tracedSum += w.tracedSum
		c.e2eSum += w.e2eSum
		opsB += w.ops
	}
	n := float64(opsB)
	v["evm.disassemble_us"] = p50(c.disasm)
	v["evm.instructions"] = float64(c.instructions) / n
	v["core.dispatch_us"] = p50(c.dispatch)
	v["core.selectors"] = float64(c.selectors) / n
	v["core.explore_us_p50"] = p50(c.explore)
	v["core.explore_us_p99"] = p99(c.explore)
	v["core.infer_us_p50"] = p50(c.infer)
	v["core.rule_fires"] = float64(c.rules) / n
	v["loadgen.sent"] = float64(opsA + opsB)
	// Overhead: the traced recovery (the four layers called one by one,
	// with the clock read around each) against sequential RecoverContext
	// on the same contracts.
	v["bench.trace_overhead_ratio"] = ratio(c.tracedSum.Seconds(), c.e2eSum.Seconds())
	// Coverage: the layers' own time against the same RecoverContext; a
	// gap is work RecoverContext does outside them.
	v["bench.layer_coverage"] = ratio(c.layerSum.Seconds(), c.e2eSum.Seconds())
	comp["traced_contracts"] = opsB
	if err := servePhase(cfg.seed, half, out); err != nil {
		return nil, err
	}
	return out, nil
}

// coldSlices merges the workers' latencies into completion order and
// counts the completions in each of the window's equal time slices (a
// completion just past the deadline counts in the last).
func coldSlices(ws []*coldWorker, window time.Duration) ([]float64, []float64) {
	type op struct {
		end time.Duration
		lat float64
	}
	var ops []op
	for _, w := range ws {
		for i := range w.lat {
			ops = append(ops, op{w.end[i], w.lat[i]})
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	lat := make([]float64, len(ops))
	counts := make([]float64, coldSegments)
	for i, o := range ops {
		lat[i] = o.lat
		counts[min(coldSegments-1, int(o.end*coldSegments/window))]++
	}
	return lat, counts
}

// coldPhase runs the closed loop for d: callers goroutines, each taking the
// next contract and recovering it with default Options. traced selects
// sequential selectors and the layered path after each recovery. Check
// failures are recorded in out.
func coldPhase(inputs []contract, next *atomic.Int64, callers int, d time.Duration, traced bool, out *outcome) ([]*coldWorker, time.Duration) {
	ws := make([]*coldWorker, callers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range ws {
		w := &coldWorker{}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var opts core.Options
			if traced {
				opts.SelectorWorkers = 1
			}
			for time.Now().Before(deadline) {
				c := &inputs[int(next.Add(1)-1)%len(inputs)]
				t0 := time.Now()
				res, err := core.RecoverContext(ctx, c.code, opts)
				el := time.Since(t0)
				w.ops++
				w.lat = append(w.lat, ms(el))
				w.end = append(w.end, time.Since(start))
				w.labels += int64(len(c.labels))
				if err != nil {
					w.failed++
					mu.Lock()
					out.problem("recover %x: %v", c.key[:6], err)
					mu.Unlock()
					continue
				}
				w.correct += int64(scoreResult(c.labels, res.Functions))
				if traced {
					w.e2eSum += el
					if msg := w.layered(c.code, res, err); msg != "" {
						w.failed++
						mu.Lock()
						out.problem("layered path differs on %x: %s", c.key[:6], msg)
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, w := range ws {
		out.attempted += w.ops
		out.failed += w.failed
		out.labels += w.labels
		out.correct += w.correct
	}
	return ws, elapsed
}

// layered recovers code through the public layer functions one at a time,
// timing each, and returns a description of any difference from want.
func (w *coldWorker) layered(code []byte, want core.Result, wantErr error) string {
	t0 := time.Now()
	prog := evm.Disassemble(code)
	t1 := time.Now()
	sels := core.ExtractSelectors(prog)
	t2 := time.Now()
	w.disasm = append(w.disasm, us(t1.Sub(t0)))
	w.dispatch = append(w.dispatch, us(t2.Sub(t1)))
	w.instructions += int64(len(prog.Instructions))
	w.selectors += int64(len(sels))
	layer := t2.Sub(t0)
	got := make([]core.RecoveredFunction, 0, len(sels))
	for _, sel := range sels {
		e0 := time.Now()
		tr := core.TraceFunction(prog, sel)
		e1 := time.Now()
		inf := core.Infer(tr)
		e2 := time.Now()
		w.explore = append(w.explore, us(e1.Sub(e0)))
		w.infer = append(w.infer, us(e2.Sub(e1)))
		layer += e2.Sub(e0)
		w.rules += int64(inf.Stats.Total())
		got = append(got, core.RecoveredFunction{Selector: abi.Selector(sel), Inputs: inf.Types})
	}
	w.layerSum += layer
	w.tracedSum += time.Since(t0)
	if len(sels) == 0 {
		if !errors.Is(wantErr, core.ErrNoFunctions) {
			return "no selectors but RecoverContext found functions"
		}
		return ""
	}
	if len(got) != len(want.Functions) {
		return "function count differs"
	}
	for i := range got {
		if got[i].Selector != want.Functions[i].Selector {
			return "selector " + got[i].Selector.Hex() + " differs"
		}
		if got[i].TypeList() != want.Functions[i].TypeList() {
			return "types of " + got[i].Selector.Hex() + " differ"
		}
	}
	return ""
}
