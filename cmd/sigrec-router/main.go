// Command sigrec-router is the stateless front door of a sigrecd cluster:
// it routes each recovery to the shard that owns the bytecode's keccak on
// a consistent-hash ring, and papers over slow and dead shards.
//
// Usage:
//
//	sigrec-router -addr :8400 -shards s1=http://h1:8409,s2=http://h2:8409,s3=http://h3:8409
//
// Endpoints:
//
//	POST /v1/recover        routed single recovery (same wire schema as sigrecd)
//	POST /v1/recover/batch  NDJSON batch; each line routed independently
//	GET  /metrics           router + per-shard series
//	GET  /healthz           pool state; 503 when no shard is healthy
//	GET  /debug/trace/{id}  stitched cross-process trace: router spans plus
//	                        every shard's, fanned out and merged
//	GET  /debug/slowest     the router's own flight recorder
//
// Routing policy, in order:
//
//   - Placement: the ring owner of keccak(bytecode), diverted to the ring
//     successor when the owner is past the bounded-load limit
//     (-load-factor times the mean inflight).
//   - Circuit breaking: a shard that fails -breaker-failures times in a
//     row is skipped for -breaker-cooldown, then probed with one request.
//   - Hedging (-hedge): when the owner has not answered within its own
//     scraped p95 latency (times -hedge-mult, clamped to [-hedge-min,
//     -hedge-max]), the request is also sent to the next shard and the
//     first answer wins.
//   - Retry: transport errors and 502/503/504 move the request to the
//     ring successor; 429 retries without a breaker strike; other
//     statuses are relayed as-is (a deterministic failure will not
//     improve on another shard).
//
// The router holds no recovery state: kill it and start another and
// nothing is lost. Every forwarded attempt carries a globally unique
// X-Request-Id (the client's id plus an attempt counter) so shard event
// logs join exactly to client requests even across retries and hedges.
//
// Tracing: an inbound W3C traceparent is adopted (malformed ones start a
// fresh root, counted in sigrec_trace_context_total), the route decision
// and every attempt become spans in the router's flight recorder, and each
// forwarded attempt carries a traceparent whose parent span id is derived
// from the attempt's X-Request-Id — so shard recovery trees nest under the
// exact attempt that caused them, with no id exchange beyond the headers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/daemon"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigrec-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8400", "listen address")
		shardSpec  = flag.String("shards", "", "comma-separated shard pool as id=url (required)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default; must match the shards' -vnodes)")
		timeout    = flag.Duration("timeout", cluster.DefaultTimeout, "end-to-end deadline per routed request, across retries and hedges")
		maxBody    = flag.Int64("maxbody", server.DefaultMaxBodyBytes, "max request-body bytes (and max batch line)")
		hedge      = flag.Bool("hedge", true, "hedge slow requests to the ring successor after the owner's p95-derived delay")
		hedgeMult  = flag.Float64("hedge-mult", cluster.DefaultHedgeMultiplier, "hedge delay = shard p95 x this multiplier")
		hedgeMin   = flag.Duration("hedge-min", cluster.DefaultHedgeMin, "lower clamp on the hedge delay")
		hedgeMax   = flag.Duration("hedge-max", cluster.DefaultHedgeMax, "upper clamp on the hedge delay (also used before the first p95 scrape)")
		brkFails   = flag.Int("breaker-failures", 3, "consecutive failures that open a shard's circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker skips its shard before probing")
		healthIntv = flag.Duration("health-interval", cluster.DefaultHealthInterval, "shard health/p95 poll period")
		loadFactor = flag.Float64("load-factor", cluster.DefaultLoadFactor, "bounded-load factor: divert from an owner loaded past this multiple of the mean")
		batchConc  = flag.Int("batch-concurrency", 0, "max in-flight upstream calls per batch request (0 = 4 per shard)")
		df         = daemon.RegisterFlags(flag.CommandLine, "sigrec-router")
	)
	flag.Parse()

	if df.Version {
		fmt.Println(obs.VersionString())
		return nil
	}
	// OTLP export ships the router's own registry (routing counters,
	// per-shard health, latency summaries) and the span tree recorded for
	// every routed request: route decision, per-attempt client spans,
	// health polls.
	reg := telemetry.NewRegistry()
	drt, err := daemon.New(df, reg, nil)
	if err != nil {
		return err
	}
	logger := drt.Logger
	shards, err := cluster.ParseShards(*shardSpec)
	if err == nil && len(shards) == 0 {
		err = errors.New("required (id=url,...)")
	}
	if err != nil {
		flag.Usage()
		return fmt.Errorf("-shards: %w", err)
	}

	rt, err := cluster.NewRouter(cluster.Config{
		Shards:           shards,
		VNodes:           *vnodes,
		Timeout:          *timeout,
		MaxBodyBytes:     *maxBody,
		Hedge:            *hedge,
		HedgeMultiplier:  *hedgeMult,
		HedgeMin:         *hedgeMin,
		HedgeMax:         *hedgeMax,
		BreakerFailures:  *brkFails,
		BreakerCooldown:  *brkCool,
		HealthInterval:   *healthIntv,
		LoadFactor:       *loadFactor,
		BatchConcurrency: *batchConc,
		Registry:         reg,
		Tracer:           drt.Tracer,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	drt.Start()

	ver, goVer := obs.Version()
	logger.Info("sigrec-router listening",
		"addr", *addr,
		"shards", len(shards),
		"vnodes", *vnodes,
		"timeout", (*timeout).String(),
		"hedge", *hedge,
		"hedge_mult", *hedgeMult,
		"hedge_min", (*hedgeMin).String(),
		"hedge_max", (*hedgeMax).String(),
		"breaker_failures", *brkFails,
		"breaker_cooldown", (*brkCool).String(),
		"load_factor", *loadFactor,
		"tracing", drt.Tracer != nil,
		"otlp_endpoint", df.OTLPEndpoint,
		"version", ver,
		"go_version", goVer,
	)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("sigrec-router shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := hs.Shutdown(sctx)
	rt.Close()
	drt.Close(sctx)
	if errors.Is(serr, context.DeadlineExceeded) {
		return errors.New("shutdown deadline exceeded")
	}
	return serr
}
