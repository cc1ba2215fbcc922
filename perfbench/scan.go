package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/scan"
	"sigrec/internal/store"
)

// scan-backfill shape: a synthetic chain with sigrec-scan's default proxy
// mix and pipeline settings, but many more templates than its default, so
// each backfill recovers dozens of implementations and dedupes the rest.
const (
	scanTemplates    = 48
	scanBlocks       = 600
	scanPerBlock     = 8
	scanProxyRate    = 0.35
	scanFacadeShare  = 0.25
	scanWorkers      = scan.DefaultWorkers
	scanCacheEntries = 4096
	scanTimeout      = 2 * time.Second
	// scanCheckpointEvery is four times sigrec-scan's default: each
	// checkpoint is four fsyncs, and at the default a pass is bound by
	// the latency of a shared disk rather than by the pipeline.
	scanCheckpointEvery = 4 * scan.DefaultCheckpointEvery
	// scanChains is how many chains a run backfills in turn, each from
	// its own seed derived from --seed. A pass's tail latency is set by
	// which templates its first blocks bring in cold, so one chain's p99
	// is as much a property of its seed as of the program. About one
	// chain in 40 also holds a template whose analysis hits the path
	// budget; truncated results are not cached, so each of its
	// deployments is recovered again and the chain runs ~5x slower.
	// Timing metrics are medians over the chains, which keep both the
	// seed's share of the spread and such a chain from deciding the
	// result; the composition reports the truncated share of the run.
	scanChains = 8
	// scanSetups: one set-up builds every chain, about 150 ms.
	scanSetups = 9
)

// scanDeployment is one deployment's ground truth.
type scanDeployment struct {
	id       string // the scanner's request id for it
	block    int
	proxy    bool
	template int // the implementation's template, proxies included
}

// scanState is one set-up: the chains a run backfills in turn.
type scanState struct {
	chains []*scanChain
	comp   map[string]any
}

// scanChain is one chain: its templates with their labels and every block
// materialized behind a timing wrapper.
type scanChain struct {
	labels [][]label
	codes  [][]byte
	deps   []scanDeployment
	src    *memSource
}

func runScanBackfill(cfg runConfig) (*outcome, error) {
	setups := scanSetups
	if cfg.trace {
		setups = 1
	}
	st, setupS, err := setupMedian(setups, func() (*scanState, error) {
		return setUpScan(cfg.seed)
	}, func(*scanState) {})
	if err != nil {
		return nil, err
	}
	comp := st.comp
	out := &outcome{values: map[string]float64{}, composition: comp}
	v := out.values
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		agg, err := st.passes(cfg, window, false, out)
		if err != nil {
			return nil, err
		}
		v["setup_s"] = setupS
		v["throughput_per_s"] = agg.chainMedian(agg.tput)
		v["latency_p50_ms"] = agg.chainMedian(agg.p50)
		v["latency_p99_ms"] = agg.chainMedian(agg.p99)
		v["cpu_ms_per_op"] = agg.chainMedian(agg.cpuPerOp)
		comp["passes"] = agg.passes
		comp["truncated_share"] = ratio(float64(agg.truncated), float64(agg.deployments))
		comp["cpu_ms_per_op_all_passes"] = ms(agg.cpu) / float64(agg.deployments)
		comp["throughput_all_passes_per_s"] = float64(agg.deployments) / agg.run.Seconds()
		return out, nil
	}

	// Traced run: phase A untraced (allocator and the program's own
	// counters), phase B with the source and store wrappers timing.
	reg0, alloc0 := readCounters(core.Metrics()), readAlloc()
	aggA, err := st.passes(cfg, window/2, false, out)
	if err != nil {
		return nil, err
	}
	reg1, alloc1 := readCounters(core.Metrics()), readAlloc()
	aggB, err := st.passes(cfg, window/2, true, out)
	if err != nil {
		return nil, err
	}
	reg2 := readCounters(core.Metrics())

	nA := float64(aggA.deployments)
	allocPerOp(v, alloc0, alloc1, aggA.deployments)
	coreCounters(v, reg0, reg1, nA)
	nB := float64(aggB.deployments)
	v["store.load_us"] = p50(aggB.loadUS)
	v["store.save_us_p50"] = p50(aggB.saveUS)
	v["store.save_us_p99"] = p99(aggB.saveUS)
	v["store.hit_ratio"] = ratio(float64(aggB.loadHits), float64(len(aggB.loadUS)))
	v["store.bytes_per_op"] = ratio(float64(aggB.storeBytes), nB)
	v["eventlog.bytes_per_op"] = ratio(float64(aggB.logBytes), nB)
	v["chain.fetch_us"] = p50(aggB.fetchUS)
	v["scan.dedupe_hit_ratio"] = ratio(delta(reg1, reg2, "sigrec_scan_dedupe_hits_total"), nB)
	v["scan.proxy_share"] = ratio(float64(aggB.proxies), nB)
	v["scan.proxy_resolved_ratio"] = ratio(float64(aggB.proxiesResolved), float64(aggB.proxies))
	v["scan.checkpoints"] = ratio(delta(reg1, reg2, "sigrec_scan_checkpoints_total"), float64(aggB.passes))
	v["scan.recoveries_per_template"] = ratio(float64(aggB.computed), float64(aggB.templatesSeen))
	v["loadgen.sent"] = float64(aggA.deployments + aggB.deployments)
	v["bench.trace_overhead_ratio"] = ratio(aggB.run.Seconds()/float64(aggB.passes), aggA.run.Seconds()/float64(aggA.passes))
	// Coverage: time inside RecoverContext (the program's own latency
	// histogram, which contains the store calls) plus chain fetches,
	// against the scan workers' wall time.
	recUS := delta(reg1, reg2, "sigrec_recover_duration_microseconds_sum")
	var fetchSum float64
	for _, d := range aggB.fetchUS {
		fetchSum += d
	}
	v["bench.layer_coverage"] = ratio(recUS+fetchSum, us(aggB.run)*scanWorkers)
	return out, nil
}

// setUpScan builds the scanChains chains for seed: chain i has seed
// seed*scanChains+i, so no two seeds share a chain.
func setUpScan(seed int64) (*scanState, error) {
	st := &scanState{}
	var deps, proxies, facades int
	shapesUnique := true
	for i := int64(0); i < scanChains; i++ {
		c, comp, err := setUpChain(seed*scanChains + i)
		if err != nil {
			return nil, err
		}
		st.chains = append(st.chains, c)
		deps += len(c.deps)
		proxies += comp.proxies
		facades += comp.facades
		shapesUnique = shapesUnique && comp.shapesUnique
	}
	st.comp = map[string]any{
		"chains":                 scanChains,
		"templates_per_chain":    scanTemplates,
		"template_shapes_unique": shapesUnique,
		"blocks_per_chain":       scanBlocks,
		"deployments":            deps,
		"proxy_share":            ratio(float64(proxies), float64(deps)),
		"facade_share":           ratio(float64(facades), float64(proxies)),
		"workers":                scanWorkers,
		"checkpoint_every":       scanCheckpointEvery,
	}
	return st, nil
}

// chainComp is what one chain adds to the workload's composition.
type chainComp struct {
	proxies, facades int
	shapesUnique     bool
}

// setUpChain generates the templates and the chain for seed, materializes
// every block, and derives each deployment's ground truth.
func setUpChain(seed int64) (*scanChain, chainComp, error) {
	var comp chainComp
	tmpls, err := chain.SyntheticTemplates(seed, scanTemplates)
	if err != nil {
		return nil, comp, err
	}
	st := &scanChain{}
	shapes := map[[2]int]bool{}
	for _, t := range tmpls {
		var ls []label
		for _, sig := range t.Functions {
			ls = append(ls, newLabel(sig))
		}
		st.labels = append(st.labels, ls)
		st.codes = append(st.codes, t.Code)
		shapes[[2]int{len(t.Code), len(ls)}] = true
	}
	comp.shapesUnique = len(shapes) == scanTemplates
	syn, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            seed,
		Blocks:          scanBlocks,
		DeploysPerBlock: scanPerBlock,
		ProxyRate:       scanProxyRate,
		FacadeShare:     scanFacadeShare,
		Templates:       st.codes,
	})
	if err != nil {
		return nil, comp, err
	}
	src := &memSource{code: map[evm.Word][]byte{}}
	ctx := context.Background()
	implOf := map[evm.Word]int{}
	for b := uint64(0); b < scanBlocks; b++ {
		blk, err := syn.BlockAt(ctx, b)
		if err != nil {
			return nil, comp, err
		}
		src.blocks = append(src.blocks, blk)
		for _, d := range blk.Deployments {
			src.code[d.Address] = d.Code
			sd := scanDeployment{id: fmt.Sprintf("scan-b%08d-t%04d", d.Block, d.Tx), block: int(d.Block), proxy: d.Kind.IsProxy(), template: d.Template}
			if sd.proxy {
				comp.proxies++
				if d.Kind == chain.DeployFacade {
					comp.facades++
				}
				t, ok := implOf[d.Implementation]
				if !ok {
					return nil, comp, fmt.Errorf("proxy %s targets an unknown implementation", sd.id)
				}
				sd.template = t
			} else {
				implOf[d.Address] = d.Template
			}
			st.deps = append(st.deps, sd)
		}
	}
	src.handoff = make([]atomic.Int64, scanBlocks)
	st.src = src
	return st, comp, nil
}

// memSource is the materialized chain: every block and every contract's
// code is in memory before the timer starts. It records when each block
// was handed to the scanner (for per-deployment latency) and, when
// tracing, how long each call took.
type memSource struct {
	blocks  []*chain.Block
	code    map[evm.Word][]byte
	handoff []atomic.Int64 // UnixMicro per block, this pass

	traced  atomic.Bool
	mu      sync.Mutex
	fetchUS []float64
}

func (m *memSource) Head(context.Context) (uint64, error) { return uint64(len(m.blocks) - 1), nil }

func (m *memSource) BlockAt(_ context.Context, n uint64) (*chain.Block, error) {
	t0 := time.Now()
	if n >= uint64(len(m.blocks)) {
		return nil, fmt.Errorf("block %d beyond head", n)
	}
	b := m.blocks[n]
	m.handoff[n].Store(time.Now().UnixMicro())
	m.record(t0)
	return b, nil
}

func (m *memSource) CodeAt(_ context.Context, addr evm.Word) ([]byte, bool, error) {
	t0 := time.Now()
	c, ok := m.code[addr]
	m.record(t0)
	return c, ok, nil
}

func (m *memSource) record(t0 time.Time) {
	if !m.traced.Load() {
		return
	}
	d := us(time.Since(t0))
	m.mu.Lock()
	m.fetchUS = append(m.fetchUS, d)
	m.mu.Unlock()
}

// timedStore wraps the result store handed to the tiered cache.
type timedStore struct {
	st *store.Store
	on bool

	mu       sync.Mutex
	loadUS   []float64
	saveUS   []float64
	loadHits int
}

func (s *timedStore) Load(key [32]byte) (core.Result, error, bool) {
	if !s.on {
		return s.st.Load(key)
	}
	t0 := time.Now()
	res, rerr, ok := s.st.Load(key)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.loadUS = append(s.loadUS, d)
	if ok {
		s.loadHits++
	}
	s.mu.Unlock()
	return res, rerr, ok
}

func (s *timedStore) Save(key [32]byte, res core.Result, rerr error) error {
	if !s.on {
		return s.st.Save(key, res, rerr)
	}
	t0 := time.Now()
	err := s.st.Save(key, res, rerr)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.saveUS = append(s.saveUS, d)
	s.mu.Unlock()
	return err
}

// scanAgg accumulates passes.
type scanAgg struct {
	passes, deployments int64
	run, cpu            time.Duration
	// per pass: the chain it backfilled, deployments/s, CPU ms per
	// deployment and the latency quantiles (ms) from block handoff to the
	// deployment's wide event
	chain                    []int
	tput, cpuPerOp, p50, p99 []float64
	truncated                int // deployments whose recovery was truncated

	proxies, proxiesResolved int
	computed, templatesSeen  int
	storeBytes, logBytes     int64
	loadUS, saveUS, fetchUS  []float64
	loadHits                 int
}

// chainMedian returns the median over chains of the median of perPass
// over that chain's passes, so neither a pass disturbed from outside nor
// one atypical chain moves the result.
func (a *scanAgg) chainMedian(perPass []float64) float64 {
	byChain := map[int][]float64{}
	for i, x := range perPass {
		byChain[a.chain[i]] = append(byChain[a.chain[i]], x)
	}
	var meds []float64
	for _, xs := range byChain {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// passes backfills the chains in turn until d has elapsed (and each chain
// at least once), each pass into a fresh store, event log, checkpoint and
// EFSD, and verifies each pass against the ground truth.
func (st *scanState) passes(cfg runConfig, d time.Duration, traced bool, out *outcome) (*scanAgg, error) {
	agg := &scanAgg{}
	start := time.Now()
	for _, c := range st.chains {
		c.src.traced.Store(traced)
		defer c.src.traced.Store(false)
	}
	for agg.passes < int64(len(st.chains)) || time.Since(start) < d {
		i := int(agg.passes) % len(st.chains)
		if err := st.chains[i].pass(cfg, agg, traced, out); err != nil {
			return nil, err
		}
		agg.chain = append(agg.chain, i)
	}
	for _, c := range st.chains {
		c.src.mu.Lock()
		agg.fetchUS = append(agg.fetchUS, c.src.fetchUS...)
		c.src.fetchUS = nil
		c.src.mu.Unlock()
	}
	return agg, nil
}

func (st *scanChain) pass(cfg runConfig, agg *scanAgg, traced bool, out *outcome) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("scan-%d-%d", os.Getpid(), agg.passes))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rs, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	ts := &timedStore{st: rs, on: traced}
	logPath := filepath.Join(dir, "events.ndjson")
	events, err := eventlog.New(eventlog.Config{
		Path:      logPath,
		QueueSize: len(st.deps) + 64, // lossless: one event per deployment
		Registry:  core.Metrics(),
	})
	if err != nil {
		rs.Close()
		return err
	}
	cp, _, _, err := scan.OpenCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		events.Close()
		rs.Close()
		return err
	}
	efsdPath := filepath.Join(dir, "efsd.json")
	s, err := scan.New(scan.Config{
		Source:          st.src,
		Cache:           core.NewTieredCache(scanCacheEntries, ts).Cache,
		EventLog:        events,
		Checkpoint:      cp,
		EFSDPath:        efsdPath,
		EndBlock:        scanBlocks - 1,
		CheckpointEvery: scanCheckpointEvery,
		Workers:         scanWorkers,
		Recover:         core.Options{Deadline: scanTimeout},
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		events.Close()
		rs.Close()
		return err
	}
	// Collect the previous pass's garbage (and the benchmark's own) so
	// every pass starts from the same heap.
	runtime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	runErr := s.Run(context.Background())
	run := time.Since(t0)
	cpu := cpuTime() - cpu0
	agg.run += run
	agg.cpu += cpu
	closeErr := events.Close()
	if err := rs.Close(); err != nil && closeErr == nil {
		closeErr = err
	}
	if runErr != nil {
		return fmt.Errorf("scan run: %w", runErr)
	}
	if closeErr != nil {
		return fmt.Errorf("scan close: %w", closeErr)
	}
	agg.passes++
	agg.deployments += int64(len(st.deps))
	agg.storeBytes += dirBytes(filepath.Join(dir, "store"))
	agg.logBytes += dirBytes(logPath)
	agg.loadUS = append(agg.loadUS, ts.loadUS...)
	agg.saveUS = append(agg.saveUS, ts.saveUS...)
	agg.loadHits += ts.loadHits
	lat, err := st.verify(logPath, efsdPath, agg, out)
	if err != nil {
		return err
	}
	agg.tput = append(agg.tput, float64(len(st.deps))/run.Seconds())
	agg.cpuPerOp = append(agg.cpuPerOp, ms(cpu)/float64(len(st.deps)))
	agg.p50 = append(agg.p50, p50(lat))
	agg.p99 = append(agg.p99, p99(lat))
	return nil
}

// verify checks one pass: every deployment recovered or deduped exactly
// once without error, every proxy attributed to its implementation (the
// recovered code is the implementation's and so are the functions), and
// the published EFSD scored against the templates' declared functions.
// It returns each deployment's latency from block handoff to its event.
func (st *scanChain) verify(logPath, efsdPath string, agg *scanAgg, out *outcome) ([]float64, error) {
	evs, _, err := eventlog.ReadLog(logPath)
	if err != nil {
		return nil, fmt.Errorf("read event log: %w", err)
	}
	var lat []float64
	byID := make(map[string][]*eventlog.Event, len(st.deps))
	for i := range evs {
		if evs[i].Kind == "" {
			byID[evs[i].RequestID] = append(byID[evs[i].RequestID], &evs[i])
		}
	}
	seen := map[int]bool{}
	for _, d := range st.deps {
		out.attempted++
		if d.proxy {
			agg.proxies++
		}
		got := byID[d.id]
		if len(got) != 1 {
			out.failed++
			out.problem("deployment %s has %d events, want 1", d.id, len(got))
			continue
		}
		ev := got[0]
		seen[d.template] = true
		if ev.Truncated {
			agg.truncated++
		}
		if ev.Cache != "hit" {
			agg.computed++
		}
		if ev.Error != "" {
			out.failed++
			out.problem("deployment %s: %s", d.id, ev.Error)
			continue
		}
		if ev.CodeBytes != len(st.codes[d.template]) || ev.Functions != len(st.labels[d.template]) {
			out.failed++
			out.problem("deployment %s recovered %d bytes/%d functions, want template %d (%d/%d)",
				d.id, ev.CodeBytes, ev.Functions, d.template, len(st.codes[d.template]), len(st.labels[d.template]))
			continue
		}
		if d.proxy {
			agg.proxiesResolved++
		}
		if h := st.src.handoff[d.block].Load(); h > 0 {
			lat = append(lat, float64(ev.TS-h)/1e3)
		}
	}
	agg.templatesSeen += len(seen)

	f, err := os.Open(efsdPath)
	if err != nil {
		return nil, fmt.Errorf("open EFSD: %w", err)
	}
	db, err := efsd.LoadTrusted(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("load EFSD: %w", err)
	}
	for t := range seen {
		for _, l := range st.labels[t] {
			out.labels++
			if sig, ok := db.Lookup(l.sel); ok && sig == efsd.RecoveredName+l.types {
				out.correct++
			}
		}
	}
	return lat, nil
}
