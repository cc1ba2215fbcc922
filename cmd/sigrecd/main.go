// Command sigrecd serves SigRec signature recovery over HTTP.
//
// Usage:
//
//	sigrecd -addr :8409 -workers 8 -queue 128 -timeout 2s -cache 65536
//
// Endpoints (see internal/server):
//
//	POST /v1/recover        hex bytecode -> JSON recovery
//	POST /v1/recover/batch  NDJSON in -> NDJSON out, streamed
//	GET  /metrics           Prometheus-flavoured exposition
//	GET  /healthz           liveness + pool state
//	GET  /debug/slowest     flight recorder: span trees of slow/truncated recoveries
//	GET  /debug/trace/{id}  stitched trace by request id or 32-hex trace id,
//	                        fanned out to -peers unless ?local=1
//	GET  /debug/events      tail of the wide-event log (requires -event-log)
//	GET  /debug/slo         burn-rate engine state: per-objective SLI, windows, alerts
//
// Recoveries run on a bounded worker pool behind a bounded admission
// queue: when the queue is full, single recovers are shed with 429 +
// Retry-After instead of queueing unboundedly. Identical concurrent
// bytecodes are coalesced into one recovery in front of the shared result
// cache. SIGTERM/SIGINT triggers graceful drain: stop accepting, finish
// inflight work, flush a final metrics snapshot to stderr, exit.
//
// Logs are structured (log/slog); every request line carries the
// request_id echoed on the response's X-Request-Id header, which also tags
// the recovery's span tree in the flight recorder and its wide event in
// the event log. -event-log makes every recovery durable: one NDJSON
// record per recovery (tail-sampled by -sample-rate; errors, truncations,
// and the slow tail always kept), rotated past -event-log-max-mb, replayed
// offline with sigrec-analyze. On drain the retained flight-recorder
// traces are dumped into the log before it is fsynced closed. -debug-addr
// starts a second listener with net/http/pprof, /debug/slowest,
// /debug/events, and /debug/slo, kept off the service port.
//
// -otlp-endpoint turns on OTLP/HTTP export: finished recovery span trees
// and periodic metrics snapshots are batched to <endpoint>/v1/traces and
// /v1/metrics with service.name, service.version, and sigrec.shard
// resource attributes. Export is fire-and-forget — a slow or absent
// collector costs dropped batches (counted in sigrec_otlp_dropped_total),
// never recovery latency. An SLO burn-rate engine always runs: request
// availability at 99.9% plus a 99%-under--slo-latency-threshold latency
// objective, alerting on the multi-window multi-burn-rate rules; alert
// transitions land in the event log as "slo_alert" records.
//
// Inbound requests may carry a W3C traceparent: a valid one is adopted so
// this shard's recovery tree nests under the caller's span (the router
// sends one per forwarded attempt), a malformed one starts a fresh root
// and never fails the request. Each disposition moves
// sigrec_trace_context_total{result="ok"|"absent"|"malformed"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sigrec"
	"sigrec/internal/cluster"
	"sigrec/internal/core"
	"sigrec/internal/daemon"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigrecd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8409", "listen address")
		workers   = flag.Int("workers", 0, "concurrent recoveries (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", server.DefaultQueueDepth, "admission queue depth; beyond it requests are shed with 429")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request recovery deadline (0 = unbounded)")
		budget    = flag.Int("budget", 0, "TASE step budget per exploration (0 = built-in default)")
		paths     = flag.Int("maxpaths", 0, "explored-path cap per exploration (0 = built-in default)")
		cache     = flag.Int("cache", server.DefaultCacheEntries, "result-cache entries (keccak-keyed LRU)")
		storeDir  = flag.String("store-dir", "", "directory for the persistent result store layered under the cache; warm results survive restarts (empty = memory-only)")
		selWork   = flag.Int("selector-workers", 1, "parallel selector explorations per contract (1 = sequential, 0 = auto up to GOMAXPROCS)")
		maxBody   = flag.Int64("maxbody", server.DefaultMaxBodyBytes, "max request-body bytes (and max batch line)")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		debugAddr = flag.String("debug-addr", "", "listen address for pprof + /debug/slowest (empty = disabled)")
		eventLog  = flag.String("event-log", "", "path for the durable wide-event log, one NDJSON record per recovery (empty = disabled)")
		eventMB   = flag.Int("event-log-max-mb", 64, "rotate the event log past this many MB per segment")
		sampleR   = flag.Float64("sample-rate", 1, "keep probability for fast, successful recoveries in the event log; errors, truncations, and the slow tail are always kept")
		sloLatUS  = flag.Duration("slo-latency-threshold", 100*time.Millisecond, "latency SLO: the duration 99% of recoveries must complete under (0 = latency objective off)")
		shardID   = flag.String("shard-id", "", "this shard's id on the cluster hash ring (enables peer cache fill when -peers is set)")
		peerSpec  = flag.String("peers", "", "comma-separated peer shards as id=url; on a local cache miss whose ring owner is a peer, its cache is consulted before computing")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per shard on the cluster hash ring (0 = default; must match the router)")
		df        = daemon.RegisterFlags(flag.CommandLine, "sigrecd")
	)
	flag.Parse()

	if df.Version {
		fmt.Println(obs.VersionString())
		return nil
	}

	if err := validateFlags(*workers, *queue, *maxBody, *selWork); err != nil {
		return usageError(err)
	}
	shards, err := cluster.ParseShards(*peerSpec)
	if err != nil {
		return usageError(fmt.Errorf("-peers: %w", err))
	}
	peers := cluster.ShardURLs(shards)
	if len(peers) > 0 && *shardID == "" {
		return usageError(errors.New("-peers requires -shard-id"))
	}
	if _, self := peers[*shardID]; self {
		return usageError(fmt.Errorf("-peers must not include this shard's own id %q", *shardID))
	}

	rt, err := daemon.New(df, core.Metrics(), map[string]string{"sigrec.shard": *shardID})
	if err != nil {
		return err
	}
	logger, tracer := rt.Logger, rt.Tracer
	var events *eventlog.Writer
	if *eventLog != "" {
		events, err = eventlog.New(eventlog.Config{
			Path:       *eventLog,
			MaxBytes:   int64(*eventMB) << 20,
			SampleRate: *sampleR,
			Registry:   core.Metrics(),
		})
		if err != nil {
			return err
		}
	}

	// Burn-rate engine over the /v1/recover outcome counters; state is
	// served at /debug/slo on both listeners.
	rt.EvaluateSLO("sigrecd_recover_requests_total", "sigrecd_recover_errors_total", *sloLatUS, events)

	// Persistent tier: with -store-dir the result cache is tiered — memory
	// LRU over an append-only disk store — so a restarted shard serves its
	// working set warm immediately, before any recompute or peer fill.
	var resultStore *store.Store
	var tiered *core.Cache
	if *storeDir != "" {
		resultStore, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			return err
		}
		tiered = core.NewTieredCache(*cache, resultStore).Cache
	}

	// Cluster mode: with a shard id and peers, misses whose ring owner is
	// another shard first try that owner's cache (peer fill) before
	// computing locally, and this shard serves its own cache to peers.
	var fill core.FillFunc
	var ring *cluster.Ring
	if len(peers) > 0 {
		ring = cluster.NewRing(*vnodes)
		ring.Add(*shardID)
		for id := range peers {
			ring.Add(id)
		}
		fill = cluster.PeerFill(ring, *shardID, peers, nil, 0)
	}

	// Flag 0 = auto is server config -1 (server reads 0 as its sequential
	// default).
	selectorWorkers := *selWork
	if selectorWorkers == 0 {
		selectorWorkers = -1
	}
	// Stitched traces tag spans with the shard id when there is one — that
	// is the name peers and the router use in their TracePeers maps — and
	// fall back to the OTLP service name for a standalone process. The
	// -peers map doubles as the trace fan-out targets: the same shards that
	// can fill this cache can hold fragments of this trace.
	service := df.ServiceName
	if *shardID != "" {
		service = *shardID
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		Timeout:         *timeout,
		StepBudget:      *budget,
		MaxPaths:        *paths,
		SelectorWorkers: selectorWorkers,
		Cache:           tiered,
		CacheEntries:    *cache,
		MaxBodyBytes:    *maxBody,
		Logger:          logger,
		Tracer:          tracer,
		EventLog:        events,
		CacheFill:       fill,
		SLO:             rt.SLO,
		Service:         service,
		TracePeers:      peers,
	})
	if len(peers) > 0 {
		srv.Mount("POST "+cluster.FillPath, cluster.FillHandler(srv.Cache(), *maxBody))
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	rt.Start()
	rt.ServeDebug(*debugAddr, server.DebugHandler(srv.DebugOptions()))

	rc := srv.ResolvedConfig()
	ver, goVer := obs.Version()
	logger.Info("sigrecd listening",
		"addr", *addr,
		"debug_addr", *debugAddr,
		"workers", rc.Workers,
		"queue", rc.QueueDepth,
		"timeout", rc.Timeout.String(),
		"step_budget", rc.StepBudget,
		"max_paths", rc.MaxPaths,
		"cache_entries", *cache,
		"store_dir", *storeDir,
		"selector_workers", *selWork,
		"max_body", rc.MaxBodyBytes,
		"tracing", tracer != nil,
		"event_log", *eventLog,
		"event_log_max_mb", *eventMB,
		"sample_rate", *sampleR,
		"shard_id", *shardID,
		"peers", len(peers),
		"otlp_endpoint", df.OTLPEndpoint,
		"service_name", df.ServiceName,
		"version", ver,
		"go_version", goVer,
	)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	logger.Info("sigrecd draining", "deadline", (*drain).String())
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting and wait for inflight handlers, then flush the worker
	// pool (queued jobs finish) and emit the final telemetry snapshot.
	serr := hs.Shutdown(sctx)
	derr := srv.Drain(sctx)
	rt.Close(sctx)
	// The flight recorder's retained span trees would die with the process;
	// dump them into the durable event log as an auxiliary record (or to
	// stderr when no log is configured) so the last slow/truncated traces
	// survive the restart. Then close the log: drain, flush, fsync.
	if tracer != nil {
		snap := tracer.Recorder().Snapshot()
		if len(snap.Slowest) > 0 || len(snap.Truncated) > 0 {
			if events != nil {
				if seq := events.EmitAux("flight_recorder", snap); seq == 0 {
					logger.Warn("flight-recorder dump dropped (event log closed or queue full)")
				}
			} else {
				enc := json.NewEncoder(os.Stderr)
				if err := enc.Encode(map[string]any{"kind": "flight_recorder", "data": snap}); err != nil {
					logger.Warn("flight-recorder dump failed", "err", err)
				}
			}
		}
	}
	if events != nil {
		if err := events.Close(); err != nil {
			logger.Error("event log close failed", "err", err)
		}
	}
	if resultStore != nil {
		// Export the store's recovered signatures as an EFSD-format JSON
		// next to the segments (selector -> placeholder-named signature,
		// loadable with efsd.LoadTrusted), then sync and close the store.
		if err := exportEFSD(resultStore, filepath.Join(*storeDir, "efsd.json")); err != nil {
			logger.Error("efsd export failed", "err", err)
		}
		if err := resultStore.Close(); err != nil {
			logger.Error("result store close failed", "err", err)
		} else {
			st := resultStore.Stats()
			logger.Info("result store closed", "records", st.Records, "segments", st.Segments)
		}
	}
	if err := sigrec.WriteMetrics(os.Stderr); err == nil {
		logger.Info("sigrecd drained")
	}
	return errors.Join(serr, derr)
}

// exportEFSD walks every stored result and writes the recovered functions
// as a signature database: the durable artifact other tools (sigrec -db,
// the baselines) can consume without replaying recoveries.
func exportEFSD(s *store.Store, path string) error {
	db := efsd.New()
	s.Keys(func(key [32]byte) bool {
		res, _, ok := s.Load(key)
		if !ok {
			return true
		}
		for _, fn := range res.Functions {
			db.AddRecovered(fn.Selector, fn.TypeList())
		}
		return true
	})
	f, err := os.CreateTemp(filepath.Dir(path), ".efsd-*")
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// validateFlags rejects flag values that would otherwise fail obscurely
// deep in the serving layer (a negative worker count silently selecting
// GOMAXPROCS, a zero queue shedding everything, a zero body cap rejecting
// every request).
func validateFlags(workers, queue int, maxBody int64, selectorWorkers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", queue)
	}
	if maxBody <= 0 {
		return fmt.Errorf("-maxbody must be positive, got %d", maxBody)
	}
	if selectorWorkers < 0 {
		return fmt.Errorf("-selector-workers must be >= 0 (0 = auto, 1 = sequential), got %d", selectorWorkers)
	}
	return nil
}

// usageError prints the flag summary after the error so a misconfigured
// service fails with actionable output rather than a bare message.
func usageError(err error) error {
	flag.Usage()
	return err
}
