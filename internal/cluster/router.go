package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/keccak"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/telemetry"
)

// Router defaults applied by NewRouter for zero Config fields.
const (
	DefaultHedgeMultiplier = 1.0
	DefaultHedgeMin        = 2 * time.Millisecond
	DefaultHedgeMax        = 500 * time.Millisecond
	DefaultLoadFactor      = 1.25
	DefaultTimeout         = 10 * time.Second
	DefaultHealthInterval  = 500 * time.Millisecond
)

// ShardAddr names one backend: a stable shard id (the ring key) and the
// base URL its sigrecd listens on.
type ShardAddr struct {
	ID  string
	URL string
}

// ParseShards parses a shard list flag, "id1=http://host:port,id2=...":
// blanks around entries are ignored and a trailing "/" on a URL is
// dropped. An empty spec yields no shards and no error; whether that is
// allowed is the caller's call.
func ParseShards(spec string) ([]ShardAddr, error) {
	var shards []ShardAddr
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("entry %q is not id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("shard %q listed twice", id)
		}
		seen[id] = true
		shards = append(shards, ShardAddr{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	return shards, nil
}

// ShardURLs maps each shard id to its base URL.
func ShardURLs(shards []ShardAddr) map[string]string {
	urls := make(map[string]string, len(shards))
	for _, sa := range shards {
		urls[sa.ID] = sa.URL
	}
	return urls
}

// Config sizes the router. The zero value is not servable: at least one
// shard is required.
type Config struct {
	// Shards is the backend pool. IDs must be unique; they are the ring
	// positions, so renaming a shard reshuffles its key slice.
	Shards []ShardAddr
	// VNodes is the virtual-node count per shard (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// Timeout bounds one client request end to end, across every retry
	// and hedge (<= 0 selects DefaultTimeout).
	Timeout time.Duration
	// MaxBodyBytes caps a single-recover body and each batch line (<= 0
	// selects the serving layer's default).
	MaxBodyBytes int64
	// Hedge enables tail-latency hedging: when the shard serving a
	// request has not answered within its p95-derived delay, the same
	// request is fired at the ring successor and the first answer wins.
	Hedge bool
	// HedgeMultiplier scales the scraped p95 into the hedge delay
	// (<= 0 selects 1.0); HedgeMin/HedgeMax clamp it.
	HedgeMultiplier float64
	HedgeMin        time.Duration
	HedgeMax        time.Duration
	// BreakerFailures and BreakerCooldown configure each shard's circuit
	// breaker (defaults: 3 consecutive failures, 1s cooldown).
	BreakerFailures int
	BreakerCooldown time.Duration
	// HealthInterval is the shard health/stats poll period (<= 0 selects
	// DefaultHealthInterval).
	HealthInterval time.Duration
	// LoadFactor is the bounded-load factor c: a shard loaded past
	// c * mean inflight is skipped for its ring successor (<= 0 selects
	// 1.25; 1 disables the bound).
	LoadFactor float64
	// BatchConcurrency bounds in-flight upstream calls per batch request
	// (<= 0 selects 4 per shard).
	BatchConcurrency int
	// Registry receives the router metrics (nil allocates a private one).
	Registry *telemetry.Registry
	// Logger, when non-nil, receives one access-log record per request.
	Logger *slog.Logger
	// Tracer, when non-nil, records one span tree per routed request — the
	// route decision, every upstream attempt (primary/retry/hedge, with the
	// winner and cancelled losers marked), and the shard health polls — and
	// continues inbound W3C trace context so the router root joins the
	// client's trace. Nil keeps routing span-free at zero cost.
	Tracer *obs.Tracer
	// Transport overrides the upstream transport (tests).
	Transport http.RoundTripper
}

// routerMetrics is the router's instrument set; per-shard series are
// labeled families so one exposition shows the whole pool.
type routerMetrics struct {
	requests    *telemetry.Counter
	badInput    *telemetry.Counter
	errors      *telemetry.Counter
	retries     *telemetry.Counter
	hedgesFired *telemetry.Counter
	hedgesWon   *telemetry.Counter
	batches     *telemetry.Counter
	contracts   *telemetry.Counter
	latency     *telemetry.Histogram
	latencySum  *telemetry.Summary

	shardRequests *telemetry.CounterVec
	shardErrors   *telemetry.CounterVec
	shardHealthy  *telemetry.GaugeVec
	shardBreaker  *telemetry.GaugeVec
	shardInflight *telemetry.GaugeVec
	shardHedgeUS  *telemetry.GaugeVec

	// traceContext is the same sigrec_trace_context_total family the shards
	// expose, registered in the router's registry so inbound extraction is
	// metered at the fleet edge too.
	traceContext *telemetry.CounterVec
}

func newRouterMetrics(reg *telemetry.Registry, shards []ShardAddr) *routerMetrics {
	reg.SetHelp("cluster_router_hedges_fired_total", "Hedged requests launched after the owner shard exceeded its p95-derived delay")
	reg.SetHelp("cluster_router_hedges_won_total", "Hedged requests that answered before the primary")
	reg.SetHelp("cluster_router_retries_total", "Requests retried on the ring successor after a shard failure")
	reg.SetHelp("cluster_shard_breaker_state", "Per-shard circuit breaker: 0 closed, 1 open, 2 half-open")
	reg.SetHelp("cluster_shard_healthy", "Per-shard health-check result: 1 routable")
	m := &routerMetrics{
		requests:    reg.Counter("cluster_router_requests_total"),
		badInput:    reg.Counter("cluster_router_bad_input_total"),
		errors:      reg.Counter("cluster_router_errors_total"),
		retries:     reg.Counter("cluster_router_retries_total"),
		hedgesFired: reg.Counter("cluster_router_hedges_fired_total"),
		hedgesWon:   reg.Counter("cluster_router_hedges_won_total"),
		batches:     reg.Counter("cluster_router_batches_total"),
		contracts:   reg.Counter("cluster_router_batch_contracts_total"),
		latency:     reg.Histogram("cluster_router_duration_microseconds", nil),
		latencySum:  reg.Summary("cluster_router_latency_microseconds", nil),

		shardRequests: reg.CounterVec("cluster_shard_requests_total", "shard"),
		shardErrors:   reg.CounterVec("cluster_shard_errors_total", "shard"),
		shardHealthy:  reg.GaugeVec("cluster_shard_healthy", "shard"),
		shardBreaker:  reg.GaugeVec("cluster_shard_breaker_state", "shard"),
		shardInflight: reg.GaugeVec("cluster_shard_inflight", "shard"),
		shardHedgeUS:  reg.GaugeVec("cluster_shard_p95_microseconds", "shard"),

		traceContext: server.NewTraceContextMetric(reg),
	}
	for _, s := range shards {
		// Pre-register the labeled families so every shard is visible on
		// the exposition from startup, zeros included.
		m.shardRequests.With(s.ID)
		m.shardErrors.With(s.ID)
		m.shardHealthy.With(s.ID).Set(1)
		m.shardBreaker.With(s.ID).Set(BreakerClosed)
		m.shardInflight.With(s.ID)
	}
	return m
}

// Router is the stateless cluster front door: it owns no recovery state,
// only the ring, the shard pool views, and the retry/hedge policy — kill
// it and start another and nothing is lost.
type Router struct {
	cfg     Config
	ring    *Ring
	shards  map[string]*shard
	client  *http.Client
	m       *routerMetrics
	reg     *telemetry.Registry
	mux     *http.ServeMux
	logger  *slog.Logger
	attempt atomic.Uint64 // globally unique forwarded-attempt counter

	stop   context.CancelFunc
	pollWG sync.WaitGroup
}

// NewRouter builds a router over the configured shard pool and starts the
// health/stats pollers. Call Close to stop them.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	if cfg.HedgeMultiplier <= 0 {
		cfg.HedgeMultiplier = DefaultHedgeMultiplier
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = DefaultHedgeMax
	}
	if cfg.LoadFactor <= 0 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.BatchConcurrency <= 0 {
		cfg.BatchConcurrency = 4 * len(cfg.Shards)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		shards: make(map[string]*shard, len(cfg.Shards)),
		client: &http.Client{Transport: cfg.Transport},
		reg:    cfg.Registry,
		m:      newRouterMetrics(cfg.Registry, cfg.Shards),
		logger: cfg.Logger,
	}
	for _, sa := range cfg.Shards {
		if sa.ID == "" || sa.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs id and url (got %q=%q)", sa.ID, sa.URL)
		}
		if _, dup := rt.shards[sa.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", sa.ID)
		}
		sh := &shard{id: sa.ID, url: sa.URL, breaker: NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		sh.healthy.Store(true) // optimistic until the first poll; the breaker covers dead backends
		rt.shards[sa.ID] = sh
		rt.ring.Add(sa.ID)
	}
	var ctx context.Context
	ctx, rt.stop = context.WithCancel(context.Background())
	for _, sh := range rt.shards {
		rt.pollWG.Add(1)
		go rt.pollLoop(ctx, sh)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recover", rt.handleRecover)
	mux.HandleFunc("POST /v1/recover/batch", rt.handleBatch)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	// The router is the natural place to stitch a cross-process trace: it
	// fans /debug/trace/{id} out to every shard and merges their halves
	// with its own route/attempt spans.
	mux.Handle("GET /debug/trace/{id}", server.TraceHandler(server.TraceOptions{
		Service: "sigrec-router",
		Tracer:  cfg.Tracer,
		Peers:   ShardURLs(cfg.Shards),
		Client:  rt.client,
	}))
	mux.Handle("GET /debug/slowest", server.SlowestHandler(cfg.Tracer))
	rt.mux = mux
	return rt, nil
}

// Handler returns the root http.Handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Close stops the health pollers. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.stop()
	rt.pollWG.Wait()
}

func (rt *Router) pollLoop(ctx context.Context, sh *shard) {
	defer rt.pollWG.Done()
	rt.pollOnce(ctx, sh)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.pollOnce(ctx, sh)
			rt.m.shardBreaker.With(sh.id).Set(sh.breaker.State())
		}
	}
}

// pollOnce runs one health/stats poll under a span root. The request id is
// the stable "poll-<shard>", so every retained poll of a shard shares one
// deterministic trace id — `/debug/trace/poll-s1` answers with the recent
// poll history of s1.
func (rt *Router) pollOnce(ctx context.Context, sh *shard) {
	_, rec := rt.cfg.Tracer.StartRoot(ctx, "shard.poll", "poll-"+sh.id, obs.SpanContext{})
	sh.poll(ctx, rt.client, rt.m)
	rec.SetStr("shard", sh.id)
	if sh.healthy.Load() {
		rec.SetInt("healthy", 1)
	} else {
		rec.SetInt("healthy", 0)
	}
	rec.SetInt("p95_us", sh.p95us.Load())
	rec.Finish(false, nil)
}

// candidates returns the shards to try for a key, in order: the
// bounded-load pick first, then the remaining ring sequence. Unhealthy
// shards are skipped unless the whole pool is unhealthy, in which case
// the raw sequence is returned — a health-poll outage must degrade to
// best effort, not a self-inflicted blackout.
func (rt *Router) candidates(key [32]byte) ([]*shard, string) {
	load := func(id string) int { return int(rt.shards[id].inflight.Load()) }
	pick, _ := rt.ring.PickBounded(key, load, rt.cfg.LoadFactor)
	seq := rt.ring.Sequence(key)
	owner := ""
	if len(seq) > 0 {
		owner = seq[0]
	}
	ordered := make([]*shard, 0, len(seq))
	if pick != "" && len(seq) > 0 && pick != seq[0] {
		ordered = append(ordered, rt.shards[pick])
	}
	for _, id := range seq {
		if id != pick || len(ordered) == 0 || ordered[0].id != pick {
			ordered = append(ordered, rt.shards[id])
		}
	}
	healthy := make([]*shard, 0, len(ordered))
	for _, sh := range ordered {
		if sh.healthy.Load() {
			healthy = append(healthy, sh)
		}
	}
	if len(healthy) == 0 {
		return ordered, owner
	}
	return healthy, owner
}

// attemptResult is one upstream attempt's outcome.
type attemptResult struct {
	shard     *shard
	status    int
	body      []byte
	requestID string // the attempt id the shard echoed
	err       error  // transport error
	retryable bool
	hedge     bool
	// span is this attempt's client span, created by the event loop before
	// launch and annotated by it (or the drainer) when the result lands —
	// the forwarding goroutine only carries the pointer, never touches it,
	// upholding the recovery's single-writer contract.
	span *obs.Span
}

// attemptIDs derives the forwarded X-Request-Id: the client's id extended
// with a globally unique attempt counter, so every forwarded attempt is
// individually joinable in the shards' event logs and no two attempts —
// across retries, hedges, or client resends — ever share an id.
func (rt *Router) attemptID(baseID string) string {
	return baseID + "." + strconv.FormatUint(rt.attempt.Add(1), 10)
}

// forward runs one upstream attempt and classifies the outcome for the
// breaker and the retry policy. attemptID is the pre-assigned forwarded
// X-Request-Id; traceID, when non-empty, travels as the outbound W3C
// traceparent with the attempt span's deterministic id as parent, so the
// shard's recovery tree nests under this exact attempt — tracer on or off,
// the header is always sent, keeping shard-side traces joinable.
func (rt *Router) forward(ctx context.Context, sh *shard, path string, body []byte, attemptID, traceID string, hedge bool) attemptResult {
	res := attemptResult{shard: sh, hedge: hedge}
	rt.m.shardRequests.With(sh.id).Inc()
	sh.inflight.Add(1)
	rt.m.shardInflight.With(sh.id).Set(sh.inflight.Load())
	defer func() {
		sh.inflight.Add(-1)
		rt.m.shardInflight.With(sh.id).Set(sh.inflight.Load())
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+path, bytes.NewReader(body))
	if err != nil {
		res.err, res.retryable = err, true
		return res
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Request-Id", attemptID)
	if traceID != "" {
		obs.Inject(req.Header, obs.SpanContext{TraceID: traceID, SpanID: obs.DeriveSpanID(attemptID), Sampled: true})
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		if ctx.Err() != nil {
			// Our own context died — the request was abandoned (hedge race
			// lost, client gone, deadline). Not the shard's fault: no
			// breaker strike, no error count, no retry. Release the probe
			// slot in case this attempt was the half-open probe.
			sh.breaker.Abandon()
			return res
		}
		// Transport failure: connection refused, reset, timeout. The shard
		// gets a breaker strike and the request moves to the ring successor.
		res.retryable = true
		rt.m.shardErrors.With(sh.id).Inc()
		sh.breaker.Failure()
		rt.m.shardBreaker.With(sh.id).Set(sh.breaker.State())
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.requestID = resp.Header.Get("X-Request-Id")
	res.body, err = io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		res.err = err
		if ctx.Err() != nil {
			sh.breaker.Abandon()
			return res
		}
		res.retryable = true
		rt.m.shardErrors.With(sh.id).Inc()
		sh.breaker.Failure()
		rt.m.shardBreaker.With(sh.id).Set(sh.breaker.State())
		return res
	}
	switch {
	case resp.StatusCode == http.StatusBadGateway,
		resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusGatewayTimeout:
		// The shard is up but not serving (draining, overload collapse):
		// strike the breaker and try the successor.
		res.retryable = true
		rt.m.shardErrors.With(sh.id).Inc()
		sh.breaker.Failure()
	case resp.StatusCode == http.StatusTooManyRequests:
		// Shed by admission control: the shard is alive (no breaker
		// strike) but the successor may have capacity.
		res.retryable = true
	default:
		// 2xx, client errors, and deterministic 500s are final — a parse
		// error or compute failure will not improve on another shard.
		sh.breaker.Success()
	}
	rt.m.shardBreaker.With(sh.id).Set(sh.breaker.State())
	return res
}

// do routes one recovery to the cluster: bounded-load owner first, hedged
// after the owner's p95-derived delay, retried on the ring successor when
// a shard is down. Returns the winning upstream response or the last
// failure.
//
// rec, when non-nil, receives the route's span tree: a "route.decide" span
// for the ring decision, one "attempt" span per upstream try (primary,
// retry, or hedge — breaker-open skips included as zero-work spans), the
// winner marked and racing losers marked cancelled. Each attempt span's id
// is pinned to DeriveSpanID(attemptID) — the same id forward injects as
// the outbound traceparent — so the shard's recovery tree parents under
// the exact attempt that carried it. do owns rec end to end, including
// Finish: when the winner returns while losers are still in flight, the
// recovery is handed to a drainer goroutine that annotates the stragglers
// and finishes the tree (the sequential handoff the obs contract allows).
func (rt *Router) do(ctx context.Context, key [32]byte, body []byte, baseID string, rec *obs.Recovery, traceID string) (attemptResult, bool) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	dsp := rec.Span("route.decide")
	cands, owner := rt.candidates(key)
	if len(cands) > 0 {
		dsp.SetStr("owner", owner)
		dsp.SetStr("picked", cands[0].id)
		if cands[0].id != owner {
			dsp.SetInt("diverted", 1)
		}
		dsp.SetInt("candidates", int64(len(cands)))
	}
	dsp.End()
	results := make(chan attemptResult, len(cands))
	next := 0
	inflight := 0
	attempts := 0

	// annotate closes one attempt span with its outcome. Only the goroutine
	// currently owning rec (event loop, then drainer) calls it.
	annotate := func(res attemptResult, outcome string) {
		sp := res.span
		if sp == nil {
			return
		}
		if res.status != 0 {
			sp.SetInt("status", int64(res.status))
		}
		if res.err != nil {
			sp.SetStr("err", res.err.Error())
		}
		sp.SetStr("outcome", outcome)
		sp.End()
	}
	// loserOutcome classifies a non-winning attempt for its span.
	loserOutcome := func(res attemptResult) string {
		switch {
		case res.err != nil && ctx.Err() != nil:
			return "cancelled"
		case res.err != nil:
			return "error"
		case res.status == http.StatusTooManyRequests:
			return "shed"
		default:
			return "retryable"
		}
	}
	// finish closes the route recovery; when losers are still in flight it
	// hands rec to a drainer that marks them cancelled first. The results
	// channel is buffered past the attempt count, so undrained losers never
	// leak a goroutine even when rec is nil and no drainer runs.
	finish := func(remaining int, err error) {
		if rec == nil {
			return
		}
		if remaining == 0 {
			rec.Finish(false, err)
			return
		}
		go func() {
			for i := 0; i < remaining; i++ {
				annotate(<-results, "cancelled")
			}
			rec.Finish(false, err)
		}()
	}

	// launch starts the next breaker-admitted candidate; returns false
	// when the pool is exhausted. Runs only on the event-loop goroutine,
	// which keeps span creation single-writer; the forwarding goroutine
	// carries the span pointer back through the results channel untouched.
	launch := func(hedge bool) bool {
		for next < len(cands) {
			sh := cands[next]
			next++
			kind := "retry"
			if hedge {
				kind = "hedge"
			} else if attempts == 0 {
				kind = "primary"
			}
			if !sh.breaker.Allow() {
				sp := rec.Span("attempt")
				sp.SetStr("shard", sh.id)
				sp.SetStr("kind", kind)
				sp.SetStr("outcome", "breaker_open")
				sp.End()
				continue
			}
			attempts++
			id := rt.attemptID(baseID)
			sp := rec.Span("attempt")
			sp.SetStr("shard", sh.id)
			sp.SetStr("attempt_id", id)
			sp.SetStr("kind", kind)
			sp.SetSpanID(obs.DeriveSpanID(id))
			inflight++
			go func() {
				r := rt.forward(ctx, sh, "/v1/recover", body, id, traceID, hedge)
				r.span = sp
				results <- r
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		rec.SetStr("outcome", "no_shard")
		finish(0, nil)
		return attemptResult{}, false
	}
	var last attemptResult
	hedged := false
	for inflight > 0 {
		// Arm the hedge timer only while exactly one attempt is out, the
		// pool has a successor left, and we have not hedged yet.
		var hedgeC <-chan time.Time
		var hedgeT *time.Timer
		if rt.cfg.Hedge && !hedged && inflight == 1 && next < len(cands) {
			d := cands[next-1].hedgeDelay(rt.cfg.HedgeMultiplier, rt.cfg.HedgeMin, rt.cfg.HedgeMax)
			hedgeT = time.NewTimer(d)
			hedgeC = hedgeT.C
		}
		select {
		case res := <-results:
			if hedgeT != nil {
				hedgeT.Stop()
			}
			inflight--
			if res.retryable || res.err != nil {
				annotate(res, loserOutcome(res))
				last = res
				if inflight == 0 {
					rt.m.retries.Inc()
					if !launch(false) {
						rec.SetStr("outcome", "exhausted")
						finish(0, last.err)
						return last, false
					}
				}
				continue
			}
			// Final answer: first one wins, racing attempts are cancelled.
			if res.hedge {
				rt.m.hedgesWon.Inc()
			}
			annotate(res, "winner")
			if res.shard != nil {
				rec.SetStr("shard", res.shard.id)
			}
			rec.SetInt("status", int64(res.status))
			cancel()
			finish(inflight, nil)
			return res, true
		case <-hedgeC:
			hedged = true
			if launch(true) {
				rt.m.hedgesFired.Inc()
			}
		case <-ctx.Done():
			if hedgeT != nil {
				hedgeT.Stop()
			}
			rec.SetStr("outcome", "timeout")
			finish(inflight, ctx.Err())
			return attemptResult{err: ctx.Err()}, false
		}
	}
	finish(0, last.err)
	return last, false
}

// --- POST /v1/recover ---

func (rt *Router) handleRecover(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.m.requests.Inc()
	defer func() {
		us := uint64(time.Since(start).Microseconds())
		rt.m.latency.Observe(us)
		rt.m.latencySum.Observe(us)
	}()

	baseID := clientRequestID(r)
	parent := rt.extractTraceContext(r)
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.m.badInput.Inc()
		writeJSONError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	code, err := server.ParseBytecode(raw)
	if err != nil {
		rt.m.badInput.Inc()
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := keccak.Sum256(code)
	body := []byte(fmt.Sprintf("0x%x", code))
	ctx, rec := rt.cfg.Tracer.StartRoot(r.Context(), "route", baseID, parent)
	res, ok := rt.do(ctx, key, body, baseID, rec, routeTraceID(parent, baseID))
	rt.logRequest(r, baseID, res, start)
	if !ok {
		rt.m.errors.Inc()
		status := http.StatusBadGateway
		msg := "no shard available"
		if res.err != nil {
			msg = res.err.Error()
			if res.err == context.DeadlineExceeded {
				status = http.StatusGatewayTimeout
			}
		} else if res.status != 0 {
			// Give the client the shard's own verdict (e.g. 429 + body).
			status = res.status
		}
		if res.body != nil {
			relayUpstream(w, res)
			return
		}
		writeJSONError(w, status, msg)
		return
	}
	relayUpstream(w, res)
}

// relayUpstream writes the winning shard response through to the client,
// preserving the attempt request id so logs and event-log records join.
func relayUpstream(w http.ResponseWriter, res attemptResult) {
	if res.requestID != "" {
		w.Header().Set("X-Request-Id", res.requestID)
	}
	if res.shard != nil {
		w.Header().Set("X-Sigrec-Shard", res.shard.id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// --- POST /v1/recover/batch ---

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.m.batches.Inc()
	baseID := clientRequestID(r)
	parent := rt.extractTraceContext(r)
	traceID := routeTraceID(parent, baseID)
	w.Header().Set("X-Request-Id", baseID)
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	ctx := r.Context()
	out := make(chan server.BatchResult, rt.cfg.BatchConcurrency)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		defer wg.Wait()
		sem := make(chan struct{}, rt.cfg.BatchConcurrency)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), int(rt.cfg.MaxBodyBytes))
		idx := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			i := idx
			idx++
			rt.m.contracts.Inc()
			code, perr := server.ParseBytecode(line)
			if perr != nil {
				rt.m.badInput.Inc()
				out <- server.BatchResult{Index: i, Error: perr.Error()}
				continue
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				out <- server.BatchResult{Index: i, Error: ctx.Err().Error()}
				continue
			}
			wg.Add(1)
			go func(i int, code []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				key := keccak.Sum256(code)
				body := []byte(fmt.Sprintf("0x%x", code))
				// Every item gets its own route recovery (single-writer),
				// all sharing the batch's trace id — one trace per client
				// batch, one route tree per contract.
				ictx, irec := rt.cfg.Tracer.StartRoot(ctx, "route", baseID, parent)
				irec.SetInt("batch_index", int64(i))
				res, ok := rt.do(ictx, key, body, baseID, irec, traceID)
				out <- batchLine(i, res, ok)
			}(i, code)
		}
		if err := sc.Err(); err != nil {
			rt.m.badInput.Inc()
			out <- server.BatchResult{Index: idx, Error: "read body: " + err.Error()}
		}
	}()

	enc := json.NewEncoder(w)
	clientGone := false
	items := 0
	for br := range out {
		items++
		if clientGone {
			continue
		}
		if err := enc.Encode(br); err != nil {
			clientGone = true
			continue
		}
		_ = rc.Flush()
	}
	if rt.logger != nil {
		rt.logger.LogAttrs(r.Context(), slog.LevelInfo, "batch",
			slog.String("request_id", baseID),
			slog.Int("items", items),
			slog.Int64("duration_us", time.Since(start).Microseconds()))
	}
}

// batchLine folds one routed item into a batch wire line.
func batchLine(i int, res attemptResult, ok bool) server.BatchResult {
	if !ok {
		msg := "no shard available"
		if res.err != nil {
			msg = res.err.Error()
		} else if len(res.body) > 0 {
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
				msg = e.Error
			}
		}
		return server.BatchResult{Index: i, Error: msg}
	}
	if res.status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("shard answered %d", res.status)
		if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return server.BatchResult{Index: i, Error: msg}
	}
	var rr server.RecoverResponse
	if err := json.Unmarshal(res.body, &rr); err != nil {
		return server.BatchResult{Index: i, Error: "malformed shard response: " + err.Error()}
	}
	return server.BatchResult{Index: i, Functions: rr.Functions, Truncated: rr.Truncated}
}

// --- GET /metrics ---

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = rt.reg.Snapshot().WriteTo(w)
}

// --- GET /healthz ---

// shardHealth is one pool entry in the router's health response.
type shardHealth struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Breaker  int64  `json:"breaker"`
	Inflight int64  `json:"inflight"`
	P95US    int64  `json:"p95_us,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ids := make([]string, 0, len(rt.shards))
	for id := range rt.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pool := make([]shardHealth, 0, len(ids))
	anyHealthy := false
	for _, id := range ids {
		sh := rt.shards[id]
		h := sh.healthy.Load()
		anyHealthy = anyHealthy || h
		pool = append(pool, shardHealth{
			ID: id, URL: sh.url, Healthy: h,
			Breaker: sh.breaker.State(), Inflight: sh.inflight.Load(),
			P95US: sh.p95us.Load(),
		})
	}
	status := http.StatusOK
	state := "ok"
	if !anyHealthy {
		status = http.StatusServiceUnavailable
		state = "no healthy shards"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"status": state, "shards": pool})
}

// --- plumbing ---

// clientRequestID resolves the client-facing base id, reusing the same
// sanitization as the serving layer.
func clientRequestID(r *http.Request) string {
	return server.EnsureRequestIDString(r.Header.Get("X-Request-Id"))
}

// extractTraceContext reads the inbound W3C trace context under the same
// policy as the serving layer: malformed means a fresh root, never an
// error, and every disposition moves sigrec_trace_context_total.
func (rt *Router) extractTraceContext(r *http.Request) obs.SpanContext {
	sc, result := obs.Extract(r.Header)
	rt.m.traceContext.With(result).Inc()
	return sc
}

// routeTraceID resolves the trace id the whole routed request travels
// under: the client's when a valid traceparent came in, the deterministic
// request-id derivation otherwise — the same id StartRoot pins on the
// route recovery, so router spans, shard spans, and wide events all join.
func routeTraceID(parent obs.SpanContext, baseID string) string {
	if parent.Valid() {
		return parent.TraceID
	}
	return obs.DeriveTraceID(baseID)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (rt *Router) logRequest(r *http.Request, baseID string, res attemptResult, start time.Time) {
	if rt.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", res.status),
		slog.Int64("duration_us", time.Since(start).Microseconds()),
		slog.String("request_id", baseID),
	}
	if res.shard != nil {
		attrs = append(attrs, slog.String("shard", res.shard.id))
	}
	if res.err != nil {
		attrs = append(attrs, slog.String("err", res.err.Error()))
	}
	level := slog.LevelInfo
	if res.err != nil || res.status >= 500 {
		level = slog.LevelError
	}
	rt.logger.LogAttrs(r.Context(), level, "route", attrs...)
}
