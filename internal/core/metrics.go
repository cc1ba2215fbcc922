package core

import (
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// tel is the pipeline-wide metrics registry. Every recovery entry point
// (Recover, RecoverContext, RecoverFunction, RecoverAll) reports into it;
// Metrics exposes it to the facade and CLI.
var tel = telemetry.NewRegistry()

func init() {
	// Every exposition of the pipeline registry (CLI -stats, sigrecd
	// /metrics) carries the binary's identity, and runtime self-metrics
	// (goroutines, heap, GC-pause/sched-latency p99) refreshed per scrape.
	obs.RegisterBuildInfo(tel)
	obs.RegisterRuntimeMetrics(tel)
	tel.SetHelp("sigrec_rule_fired_total", "Inference-rule applications by rule (R1-R31, the paper's Fig. 19 live)")
	tel.SetHelp("sigrec_truncations_total", "Budget-truncated TASE explorations by cause")
	tel.SetHelp("sigrec_build_info", "Build identity; constant 1")
	tel.SetHelp("sigrec_recover_duration_microseconds", "Whole-contract recovery latency (E3 buckets)")
	tel.SetHelp("sigrec_recover_latency_microseconds", "Whole-contract recovery latency (streaming CKMS quantiles)")
	tel.SetHelp("sigrec_phase_disasm_microseconds", "Disassembly phase latency per recovery")
	tel.SetHelp("sigrec_phase_dispatch_microseconds", "Dispatcher selector-extraction latency per recovery")
	tel.SetHelp("sigrec_phase_explore_microseconds", "TASE exploration latency per recovery, summed over selectors")
	tel.SetHelp("sigrec_phase_infer_microseconds", "Type-inference latency per recovery, summed over selectors")
}

// Pre-resolved instruments so the hot path never touches the registry map.
var (
	mRecoveries     = tel.Counter("sigrec_recoveries_total")
	mRecoverErrors  = tel.Counter("sigrec_recover_errors_total")
	mTruncated      = tel.Counter("sigrec_recoveries_truncated_total")
	mFunctions      = tel.Counter("sigrec_functions_recovered_total")
	mPathsExplored  = tel.Counter("sigrec_tase_paths_explored_total")
	mPathsPruned    = tel.Counter("sigrec_tase_paths_pruned_total")
	mTASESteps      = tel.Counter("sigrec_tase_steps_total")
	mEvents         = tel.Counter("sigrec_tase_events_collected_total")
	mCacheHits      = tel.Counter("sigrec_cache_hits_total")
	mCacheMisses    = tel.Counter("sigrec_cache_misses_total")
	mCacheCoalesced = tel.Counter("sigrec_cache_coalesced_total")
	mCacheEvicted   = tel.Counter("sigrec_cache_evictions_total")
	mCacheEntries   = tel.Gauge("sigrec_cache_entries")
	// Peer cache-fill (cluster mode): a fill hit is a result copied from
	// the owning shard instead of recomputed; a fill miss fell through to
	// local compute.
	mCacheFillHits   = tel.Counter("sigrec_cache_fill_hits_total")
	mCacheFillMisses = tel.Counter("sigrec_cache_fill_misses_total")
	// Disk-tier (persistent result store) instruments: a store hit is a
	// result served from disk instead of recomputed (also metered as a
	// cache hit); write errors are surfaced here because Save failures
	// never fail the recovery.
	mStoreHits        = tel.Counter("sigrec_store_hits_total")
	mStoreMisses      = tel.Counter("sigrec_store_misses_total")
	mStoreWriteErrors = tel.Counter("sigrec_store_write_errors_total")
	mBatches          = tel.Counter("sigrec_batches_total")
	mRecoverUS        = tel.Histogram("sigrec_recover_duration_microseconds", nil)

	// Interner and copy-on-write state instruments. Hit rate is exposed as a
	// permille gauge so it reads directly off the exposition endpoint; pool
	// reuse is derived as gets - allocs.
	mInternHits    = tel.Counter("sigrec_intern_hits_total")
	mInternMisses  = tel.Counter("sigrec_intern_misses_total")
	mInternHitRate = tel.Gauge("sigrec_intern_hit_rate_permille")
	mCloneBytes    = tel.Counter("sigrec_state_clone_bytes_total")
	mStateGets     = tel.Counter("sigrec_state_pool_gets_total")
	mStateAllocs   = tel.Counter("sigrec_state_pool_allocs_total")

	// mTruncCause breaks truncations down by which budget was hit.
	mTruncCause = tel.CounterVec("sigrec_truncations_total", "cause")

	// Streaming-quantile summaries: true p50/p95/p99 on the exposition
	// without pre-chosen bucket bounds. sRecoverUS complements the E3
	// histogram (kept for bucket-compatible dashboards); the phase
	// summaries attribute where recovery time goes.
	sRecoverUS  = tel.Summary("sigrec_recover_latency_microseconds", nil)
	sDisasmUS   = tel.Summary("sigrec_phase_disasm_microseconds", nil)
	sDispatchUS = tel.Summary("sigrec_phase_dispatch_microseconds", nil)
	sExploreUS  = tel.Summary("sigrec_phase_explore_microseconds", nil)
	sInferUS    = tel.Summary("sigrec_phase_infer_microseconds", nil)
)

// mRuleFired holds one pre-resolved counter per inference rule, indexed by
// RuleID, so inference.hit pays a single atomic add — no map lookup — to
// keep the live R1-R31 distribution on the exposition. Index 0 is unused.
var mRuleFired = func() [NumRules + 1]*telemetry.Counter {
	vec := tel.CounterVec("sigrec_rule_fired_total", "rule")
	var arr [NumRules + 1]*telemetry.Counter
	for r := 1; r <= NumRules; r++ {
		// Pre-registering every rule makes all 31 series visible on the
		// exposition from startup, zeros included.
		arr[r] = vec.With(RuleID(r).String())
	}
	return arr
}()

// Metrics returns the pipeline's telemetry registry. Counters are
// cumulative for the process lifetime; use Snapshot deltas to meter a
// single run.
func Metrics() *telemetry.Registry { return tel }

// finishTASE folds one finished exploration into the aggregate counters —
// and, when a wide event is being built for the recovery, into the event.
// It reads the interner's counters, so it runs before the engine's region
// is released. Per-trace counts are accumulated locally during exploration
// and flushed here in one shot, so the hot loop never touches an atomic.
// ev nil is the events-off path.
func finishTASE(t *tase, ev *eventlog.Event) {
	if ev != nil {
		ev.Paths += int64(t.paths)
		ev.Steps += int64(t.totSteps)
		ev.Pruned += int64(t.pruned)
		ev.AddIntern(t.it.hits, t.it.misses)
		if t.trunc && ev.TruncCause == "" {
			ev.TruncCause = t.truncationCause()
		}
	}
	mPathsExplored.Add(uint64(t.paths))
	mPathsPruned.Add(uint64(t.pruned))
	mTASESteps.Add(uint64(t.totSteps))
	mEvents.Add(uint64(len(t.reg.events)))
	mStateGets.Add(t.stateGets)
	mCloneBytes.Add(t.cloneBytes)
	if t.trunc {
		mTruncCause.With(t.truncationCause()).Inc()
	}
	mInternHits.Add(t.it.hits)
	mInternMisses.Add(t.it.misses)
	if total := mInternHits.Load() + mInternMisses.Load(); total > 0 {
		mInternHitRate.Set(int64(mInternHits.Load() * 1000 / total))
	}
}
