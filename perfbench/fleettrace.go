package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/cluster"
)

// fleetTrace collects the traced run's timings at the fleet's seams: the
// router's and each shard's handler, the router's upstream transport
// (attempts and health polls) and the peer-fill client. Every wrapper is
// installed for the whole run and records only while on is set, so the
// untraced phases pay one atomic load per call.
type fleetTrace struct {
	on atomic.Bool

	mu          sync.Mutex
	shardUS     []float64 // /v1/recover handler time per shard request
	shardShed   int
	shardBytes  int64
	routerUS    []float64 // router handler time per client request
	attempts    map[string]float64
	attemptUS   []float64
	pollUS      []float64
	pollStart   time.Time
	fills, fHit int
}

type layerKind int

const (
	layerShard layerKind = iota
	layerRouter
)

func newFleetTrace() *fleetTrace {
	return &fleetTrace{attempts: map[string]float64{}}
}

func (t *fleetTrace) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shardUS, t.routerUS, t.attemptUS, t.pollUS = nil, nil, nil, nil
	t.shardShed, t.shardBytes, t.fills, t.fHit = 0, 0, 0, 0
	t.attempts = map[string]float64{}
	t.pollStart = time.Now()
}

// timedHandler times POST /v1/recover through a handler and counts the
// bytes and status it answers with.
type timedHandler struct {
	next http.Handler
	tr   *fleetTrace
	kind layerKind
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() || r.URL.Path != "/v1/recover" {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	d := us(time.Since(t0))
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	if h.kind == layerRouter {
		h.tr.routerUS = append(h.tr.routerUS, d)
		return
	}
	h.tr.shardUS = append(h.tr.shardUS, d)
	h.tr.shardBytes += cw.n
	if cw.status == http.StatusTooManyRequests {
		h.tr.shardShed++
	}
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// routerTransport is the router's upstream transport: it times each
// recover attempt from send until the router closes the body, keyed by
// the attempt's request id, and each health or metrics poll.
type routerTransport struct {
	base http.RoundTripper
	tr   *fleetTrace
}

func (rt *routerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.tr.on.Load() {
		return rt.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := rt.base.RoundTrip(req)
	isPoll := req.Method == http.MethodGet
	id := req.Header.Get("X-Request-Id")
	done := func() {
		d := us(time.Since(t0))
		rt.tr.mu.Lock()
		defer rt.tr.mu.Unlock()
		if isPoll {
			rt.tr.pollUS = append(rt.tr.pollUS, d)
			return
		}
		rt.tr.attemptUS = append(rt.tr.attemptUS, d)
		rt.tr.attempts[id] = d
	}
	if err != nil {
		done()
		return resp, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, fn: done}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.fn)
	return err
}

// fillTransport is the shards' peer-fill client: it counts fill calls and
// the owner answers that carried a cached result.
type fillTransport struct {
	base http.RoundTripper
	tr   *fleetTrace
}

func (ft *fillTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ft.base.RoundTrip(req)
	if ft.tr.on.Load() {
		ft.tr.mu.Lock()
		ft.tr.fills++
		if err == nil && resp.StatusCode == http.StatusOK {
			ft.tr.fHit++
		}
		ft.tr.mu.Unlock()
	}
	return resp, err
}

// report derives the server and cluster layer metrics of the traced phase
// from the seam timings and the client's own record of each request, and
// returns the share of the client's latency the timed seams cover.
func (t *fleetTrace) report(v map[string]float64, ph *phase, schedule []request, ring *cluster.Ring) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	v["server.handler_us_p50"] = p50(t.shardUS)
	v["server.handler_us_p99"] = p99(t.shardUS)
	v["server.shed_ratio"] = ratio(float64(t.shardShed), float64(len(t.shardUS)))
	v["server.response_bytes"] = ratio(float64(t.shardBytes), float64(len(t.shardUS)))
	v["cluster.attempt_us_p50"] = p50(t.attemptUS)
	v["cluster.attempt_us_p99"] = p99(t.attemptUS)
	v["cluster.attempts_per_request"] = ratio(float64(len(t.attemptUS)), float64(len(schedule)))
	v["cluster.fill_hit_ratio"] = ratio(float64(t.fHit), float64(t.fills))
	v["cluster.poll_us"] = p50(t.pollUS)
	v["cluster.polls_per_s"] = ratio(float64(len(t.pollUS)), time.Since(t.pollStart).Seconds())

	var self []float64
	var owner, answered int
	var covered, total float64
	for i := range ph.sent {
		s := &ph.sent[i]
		total += ms(s.end.Sub(s.due))
		covered += ms(s.start.Sub(s.due))
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		answered++
		if id, ok := ring.Owner(schedule[i].key); ok && id == s.shard {
			owner++
		}
		if a, ok := t.attempts[s.attemptID]; ok {
			self = append(self, us(s.end.Sub(s.start))-a)
		}
	}
	var routerSum float64
	for _, d := range t.routerUS {
		routerSum += d
	}
	v["cluster.route_self_us_p50"] = p50(self)
	v["cluster.owner_ratio"] = ratio(float64(owner), float64(answered))
	// Coverage: the generator's lateness (waiting for a free connection)
	// plus the router's handler time
	// (which contains every attempt and shard) against the latency the
	// client saw; the gap is the client's own HTTP stack.
	return ratio(covered+routerSum/1e3, total)
}
