// Command sigrec-scan follows a chain and recovers function signatures
// from every contract deployment it sees, forever.
//
// Usage:
//
//	sigrec-scan -data /var/lib/sigrec-scan -seed 1 -chain-blocks 2000 -end 1999
//	sigrec-scan -data /var/lib/sigrec-scan -seed 1 -chain-blocks 100000 -live
//
// The scanner runs one bounded pipeline in two modes: backfill (scan a
// historical range at full throughput, then exit) and live (tail the
// head with bounded lag until signaled). Stages: block ingest ->
// deployment extraction -> proxy resolution (byte-exact EIP-1167
// matching plus a bounded concrete-interpreter probe for non-minimal
// DELEGATECALL forwarders) -> dedupe against the persistent result store
// -> recovery -> publish into the EFSD JSON and the wide-event log.
//
// Progress is checkpointed durably under -data/checkpoint: the event log
// is fsynced before each cursor save, so a SIGKILLed scanner restarted
// with the same flags resumes exactly, recomputing nothing that reached
// the store and losing nothing that reached the cursor. The chain source
// is the deterministic synthetic chain from internal/chain (block
// content is a pure function of -seed and the block number), standing in
// for an RPC-backed source the way internal/chain's workload generator
// stands in for mainnet in the ParChecker experiments.
//
// The scan event log is always lossless (no sampling): crash-recovery
// reconciliation needs every deployment's record.
//
// -debug-addr starts the scanner's operator surface — /metrics, /healthz,
// /debug/slowest, /debug/slo, /debug/events, and pprof — the same mux
// sigrecd serves, so fleet dashboards scrape every binary identically.
// -otlp-endpoint exports per-deployment span trees and metrics snapshots
// to an OTLP/HTTP collector; an SLO burn-rate engine always evaluates
// scan availability and recovery latency, logging alert transitions as
// "slo_alert" wide events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/daemon"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/scan"
	"sigrec/internal/server"
	"sigrec/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigrec-scan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataDir = flag.String("data", "", "state directory: store/, checkpoint/, events.ndjson, efsd.json (required)")

		seed      = flag.Int64("seed", 1, "synthetic chain seed (same seed = same chain)")
		chainLen  = flag.Uint64("chain-blocks", 10000, "synthetic chain length in blocks")
		perBlock  = flag.Int("deploys-per-block", 4, "contract deployments per block")
		proxyRate = flag.Float64("proxy-rate", 0.35, "fraction of deployments that are proxies")
		facade    = flag.Float64("facade-share", 0.25, "share of proxies that are non-minimal DELEGATECALL facades")
		templates = flag.Int("templates", 16, "distinct implementation contracts on the synthetic chain")

		live      = flag.Bool("live", false, "follow the head instead of backfilling a fixed range")
		headStart = flag.Uint64("head-start", 0, "live mode: head block at startup")
		headMS    = flag.Int("head-interval-ms", 0, "live mode: milliseconds per new block (0 = head fixed at the chain end)")
		endBlock  = flag.Uint64("end", 0, "backfill mode: last block to scan, inclusive (0 = chain end)")
		poll      = flag.Duration("poll", scan.DefaultPollInterval, "live mode head poll interval")

		workers  = flag.Int("workers", scan.DefaultWorkers, "recovery worker pool size")
		queue    = flag.Int("queue", scan.DefaultQueueDepth, "pipeline channel depth (bounds ingest-ahead)")
		ckEvery  = flag.Int("checkpoint-every", scan.DefaultCheckpointEvery, "deployments between checkpoint saves")
		cacheEnt = flag.Int("cache", 4096, "in-memory result-cache entries over the store")

		budget  = flag.Int("budget", 0, "TASE step budget per exploration (0 = built-in default)")
		paths   = flag.Int("maxpaths", 0, "explored-path cap per exploration (0 = built-in default)")
		timeout = flag.Duration("timeout", 2*time.Second, "per-contract recovery deadline (0 = unbounded)")
		selWork = flag.Int("selector-workers", 0, "parallel selector explorations per contract (0 = auto)")

		eventMB   = flag.Int("event-log-max-mb", 64, "rotate the event log past this many MB per segment")
		debugAddr = flag.String("debug-addr", "", "listen address for the scanner's operator surface: /metrics, /healthz, /debug/slowest, /debug/trace/{id}, /debug/slo, /debug/events, pprof (empty = disabled)")
		sloLatUS  = flag.Duration("slo-latency-threshold", 500*time.Millisecond, "latency SLO: the duration 99% of recoveries must complete under (0 = latency objective off)")
		stats     = flag.Bool("stats", true, "dump a final metrics snapshot to stderr on exit")
		df        = daemon.RegisterFlags(flag.CommandLine, "sigrec-scan")
	)
	flag.Parse()

	if df.Version {
		fmt.Println(obs.VersionString())
		return nil
	}
	if *dataDir == "" {
		flag.Usage()
		return errors.New("-data is required")
	}
	if *perBlock <= 0 || *templates <= 0 || *chainLen == 0 {
		return errors.New("-deploys-per-block, -templates, and -chain-blocks must be positive")
	}

	// Per-deployment span trees and metrics snapshots are exported when
	// -otlp-endpoint is set.
	reg := core.Metrics()
	rt, err := daemon.New(df, reg, nil)
	if err != nil {
		return err
	}
	logger := rt.Logger
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		return err
	}

	tmpls, err := chain.SyntheticTemplates(*seed, *templates)
	if err != nil {
		return err
	}
	source, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            *seed,
		Blocks:          *chainLen,
		DeploysPerBlock: *perBlock,
		ProxyRate:       *proxyRate,
		FacadeShare:     *facade,
		Templates:       chain.TemplateCodes(tmpls),
		HeadStart:       *headStart,
		HeadInterval:    time.Duration(*headMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}

	resultStore, err := store.Open(filepath.Join(*dataDir, "store"), store.Options{})
	if err != nil {
		return err
	}
	events, err := eventlog.New(eventlog.Config{
		Path:     filepath.Join(*dataDir, "events.ndjson"),
		MaxBytes: int64(*eventMB) << 20,
		Registry: core.Metrics(),
	})
	if err != nil {
		resultStore.Close()
		return err
	}
	cp, resume, haveResume, err := scan.OpenCheckpoint(filepath.Join(*dataDir, "checkpoint"))
	if err != nil {
		events.Close()
		resultStore.Close()
		return err
	}

	end := *endBlock
	if end == 0 || end >= *chainLen {
		end = *chainLen - 1
	}

	// Burn-rate engine over the scanner's own outcome counters (errors are
	// a subset of completions, so the availability SLI is exact). State
	// serves at /debug/slo on -debug-addr.
	rt.EvaluateSLO("sigrec_scan_recoveries_total", "sigrec_scan_recover_errors_total", *sloLatUS, events)
	cfg := scan.Config{
		Source:          source,
		Cache:           core.NewTieredCache(*cacheEnt, resultStore).Cache,
		EventLog:        events,
		Checkpoint:      cp,
		EFSDPath:        filepath.Join(*dataDir, "efsd.json"),
		Live:            *live,
		EndBlock:        end,
		PollInterval:    *poll,
		Workers:         *workers,
		QueueDepth:      *queue,
		CheckpointEvery: *ckEvery,
		Recover: core.Options{
			StepBudget:      *budget,
			MaxPaths:        *paths,
			Deadline:        *timeout,
			SelectorWorkers: *selWork,
		},
		Tracer: rt.Tracer,
		Logger: logger,
	}
	if haveResume {
		cfg.Resume = &resume
		logger.Info("resuming from checkpoint", "cursor", resume.String())
	} else {
		logger.Info("starting from genesis")
	}
	scanner, err := scan.New(cfg)
	if err != nil {
		events.Close()
		resultStore.Close()
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	mode := "backfill"
	if *live {
		mode = "live"
	}

	rt.Start()
	// The debug listener is the scanner's only HTTP surface, so unlike
	// sigrecd it also mounts /metrics and /healthz here.
	rt.ServeDebug(*debugAddr, server.DebugHandler(server.DebugOptions{
		Tracer:  rt.Tracer,
		Events:  events,
		SLO:     rt.SLO,
		Metrics: reg,
		Trace: server.TraceHandler(server.TraceOptions{
			Service: df.ServiceName,
			Tracer:  rt.Tracer,
		}),
		Health: func() any {
			return struct {
				Status string `json:"status"`
				Mode   string `json:"mode"`
			}{"ok", mode}
		},
	}))

	logger.Info("scan starting", "mode", mode, "data", *dataDir, "seed", *seed,
		"blocks", *chainLen, "end", end, "workers", cfg.Workers,
		"debug_addr", *debugAddr, "otlp_endpoint", df.OTLPEndpoint)

	serr := scanner.Run(ctx)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.Close(sctx)

	// Drain order mirrors sigrecd: finish the pipeline (Run already saved
	// the final checkpoint), then close the log (flush + fsync), then the
	// store.
	if err := events.Close(); err != nil {
		logger.Error("event log close failed", "err", err)
	}
	st := resultStore.Stats()
	if err := resultStore.Close(); err != nil {
		logger.Error("result store close failed", "err", err)
	} else {
		logger.Info("result store closed", "records", st.Records, "segments", st.Segments)
	}
	if *stats {
		if _, err := core.Metrics().WriteTo(os.Stderr); err != nil {
			logger.Error("metrics dump failed", "err", err)
		}
	}
	if serr != nil {
		return serr
	}
	logger.Info("scan drained")
	return nil
}
