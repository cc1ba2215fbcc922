package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/core"
	"sigrec/internal/keccak"
	"sigrec/internal/server"
)

// The serving phase: Zipf traffic through a cluster router in front of
// three shards with peer fill, sent open-loop by a child process at a
// fixed rate. It runs at the end of recover-cold's traced run and supplies
// the server, cluster and loadgen layer metrics. It is not a timed
// workload of its own: open-loop latency on a small shared host measures
// the host's stalls (vCPU steal, the collector) more than the fleet, and
// did not repeat within any bound the benchmark may set.
//
// The offered rate is under a tenth of what the same nproc connections
// carry closed-loop during the warm-up (recorded as
// warmup_closed_loop_per_s; about 5000 requests/s on a 2-vCPU VM). The
// Zipf exponent lies inside the 0.64-0.83 range Breslau et al. measured
// on web proxy traces ("Web Caching and Zipf-like Distributions: Evidence
// and Implications", INFOCOM 1999). The never-seen share and the cache
// size against the population are assumptions, not measurements: no
// traffic trace of this system exists to fit them to. The population (two
// DefaultConfig batches and 1700 multi-function contracts, 6000 distinct)
// is larger than the shards' combined cache, so the Zipf tail keeps
// missing. The nested-array synthesized contracts are left to
// recover-cold: with nproc connections, one of their recoveries (up to
// tens of ms) holds a connection while the requests behind it wait.
const (
	fleetRate         = 400.0 // offered requests per second
	fleetShards       = 3
	fleetCacheEntries = 1536 // per shard
	fleetZipfS        = 0.8
	fleetNeverSeen    = 0.02 // share of requests carrying never-seen bytecode
	fleetWarmup       = 8000 // closed-loop requests that fill the caches
	fleetTimeout      = 10 * time.Second
)

var fleetMix = mixConfig{singles: 2, deployed: 1700}

// request is one scheduled /v1/recover call: its body, the ground truth
// and the ring key of its bytecode, all built in set-up.
type request struct {
	body   []byte
	key    [32]byte
	labels []label
}

// fleet is the system under test: three shards with peer fill behind a
// router, on loopback listeners in this process, plus the wrappers that
// time each seam when tracing is on.
type fleet struct {
	servers []*http.Server
	shards  []*server.Server
	router  *cluster.Router
	url     string
	ring    *cluster.Ring
	client  *http.Client
	tr      *fleetTrace
}

// fleetState is one set-up: inputs, schedules, a warm fleet and a load
// generator holding the timed schedule.
type fleetState struct {
	warm, timed []request
	comp        map[string]any
	f           *fleet
	gen         *loadgen
}

func (st *fleetState) close() {
	if st.gen != nil {
		st.gen.close()
	}
	st.f.close()
}

// servePhase runs the serving phase for d: set-up, then an untraced half
// (the program's own cache counters) and a traced half (every seam
// wrapper timing). Its checks count in out; the layer metrics it owns go
// into out.values and the rest of what it measured into the composition
// under "serving".
func servePhase(seed int64, d time.Duration, out *outcome) error {
	conns := runtime.NumCPU()
	n := int(math.Ceil(fleetRate * d.Seconds()))
	st, err := setUpFleet(seed, fleetRate, n, conns)
	if err != nil {
		return fmt.Errorf("serving phase: %w", err)
	}
	defer st.close()
	comp := st.comp
	comp["connections"] = conns
	comp["loop"] = "open"
	comp["offered_rate_per_s"] = fleetRate
	out.composition["serving"] = comp

	half := len(st.timed) / 2
	halfA, halfB := st.timed[:half], st.timed[half:]
	reg0, alloc0 := readCounters(core.Metrics()), readAlloc()
	cpu0 := cpuTime()
	phA, err := st.gen.run(0, half)
	if err != nil {
		return err
	}
	cpuA := cpuTime() - cpu0
	reg1, alloc1 := readCounters(core.Metrics()), readAlloc()
	rreg0 := readCounters(st.f.router.Registry())
	st.f.tr.reset()
	st.f.tr.on.Store(true)
	phB, err := st.gen.run(half, len(st.timed))
	st.f.tr.on.Store(false)
	if err != nil {
		return err
	}
	rreg1 := readCounters(st.f.router.Registry())
	phA.check(halfA, out)
	phB.check(halfB, out)

	// The serving layers' metrics, and the core cache's, which only this
	// phase exercises.
	v := out.values
	coverage := st.f.tr.report(v, phB, halfB, st.f.ring)
	v["cluster.hedges_per_request"] = ratio(delta(rreg0, rreg1, "cluster_router_hedges_fired_total"), float64(len(halfB)))
	v["loadgen.lag_p99_ms"] = p99(append(append([]float64(nil), phA.lag...), phB.lag...))
	fc := map[string]float64{}
	coreCounters(fc, reg0, reg1, float64(len(halfA)))
	for _, k := range []string{"core.cache_hit_ratio", "core.cache_coalesced_ratio", "core.cache_evictions"} {
		v[k] = fc[k]
	}
	// Everything else it measured is recorded, not reported as a metric:
	// the layer metrics of the same names come from the cold phases.
	allocPerOp(fc, alloc0, alloc1, int64(len(halfA)))
	fc["layer_coverage"] = coverage
	fc["trace_overhead_ratio"] = ratio(p50(phB.lat), p50(phA.lat))
	fc["latency_p50_ms"] = p50(phA.lat)
	fc["latency_p99_ms"] = p99(phA.lat)
	fc["cpu_ms_per_op"] = ms(cpuA) / float64(len(halfA))
	fc["sent"] = float64(len(halfA) + len(halfB))
	comp["measured"] = fc
	comp["latency_samples"] = len(phA.lat)
	return nil
}

// coreCounters derives the core-layer metrics from the program's own
// counters between two readings, per client request.
func coreCounters(v map[string]float64, a, b counters, requests float64) {
	recs := delta(a, b, "sigrec_recoveries_total")
	hits, misses := delta(a, b, "sigrec_cache_hits_total"), delta(a, b, "sigrec_cache_misses_total")
	coal := delta(a, b, "sigrec_cache_coalesced_total")
	v["core.cache_hit_ratio"] = ratio(hits, hits+misses+coal)
	v["core.cache_coalesced_ratio"] = ratio(coal, hits+misses+coal)
	v["core.cache_evictions"] = ratio(delta(a, b, "sigrec_cache_evictions_total"), requests)
	v["core.recoveries_per_request"] = ratio(recs, requests)
	v["core.tase_steps"] = ratio(delta(a, b, "sigrec_tase_steps_total"), requests)
	v["core.tase_paths"] = ratio(delta(a, b, "sigrec_tase_paths_explored_total"), requests)
	v["core.tase_paths_pruned"] = ratio(delta(a, b, "sigrec_tase_paths_pruned_total"), requests)
	ih, im := delta(a, b, "sigrec_intern_hits_total"), delta(a, b, "sigrec_intern_misses_total")
	v["core.intern_hit_ratio"] = ratio(ih, ih+im)
	v["core.truncated_ratio"] = ratio(delta(a, b, "sigrec_recoveries_truncated_total"), recs)
}

// setUpFleet builds the inputs and schedules for seed, starts the fleet,
// fills its caches with the warm-up schedule, and starts the load
// generator with the timed schedule.
func setUpFleet(seed int64, rate float64, timed, conns int) (*fleetState, error) {
	pop, comp, err := buildMix(seed, fleetMix)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(pop))
	for i := range pop {
		bodies[i] = []byte(fmt.Sprintf("0x%x", pop[i].code))
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	zipf := newZipf(r, fleetZipfS, len(pop))
	fresh := 0
	draw := func(count int, allowFresh bool) []request {
		out := make([]request, count)
		for i := range out {
			idx := zipf.draw()
			c := &pop[idx]
			if allowFresh && r.Float64() < fleetNeverSeen {
				// Never-seen bytecode: the same contract with an
				// unreachable suffix, so it misses every cache while its
				// ground truth stays the base contract's.
				fresh++
				code := append(append(make([]byte, 0, len(c.code)+4), c.code...), 0xfe, byte(fresh>>16), byte(fresh>>8), byte(fresh))
				out[i] = request{body: []byte(fmt.Sprintf("0x%x", code)), key: keccak.Sum256(code), labels: c.labels}
				continue
			}
			out[i] = request{body: bodies[idx], key: c.key, labels: c.labels}
		}
		return out
	}
	st := &fleetState{warm: draw(fleetWarmup, false), timed: draw(timed, true), comp: comp}
	comp["population"] = len(pop)
	comp["cache_entries_per_shard"] = fleetCacheEntries
	comp["shards"] = fleetShards
	comp["zipf_s"] = fleetZipfS
	comp["never_seen_share"] = fleetNeverSeen
	comp["warmup_requests"] = fleetWarmup
	comp["timed_requests"] = timed
	comp["timed_never_seen_requests"] = fresh
	distinct := map[[32]byte]bool{}
	for _, q := range st.timed {
		distinct[q.key] = true
	}
	comp["timed_distinct_bytecodes"] = len(distinct)

	st.f, err = startFleet(conns)
	if err != nil {
		return nil, err
	}
	ph := st.f.closedLoop(st.warm, conns)
	if ph.failed > 0 {
		st.f.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", ph.failed, len(st.warm))
	}
	// The closed-loop warm-up is the capacity reference for the offered
	// rate: as many requests as conns connections carry, from cold caches.
	comp["warmup_closed_loop_per_s"] = float64(len(st.warm)) / ph.elapsed.Seconds()
	job := genJob{URL: st.f.url, Rate: rate, Conns: conns, Schedule: make([]int32, len(st.timed))}
	index := map[[32]byte]int32{}
	for i, q := range st.timed {
		k, ok := index[q.key]
		if !ok {
			k = int32(len(job.Bodies))
			index[q.key] = k
			job.Bodies = append(job.Bodies, q.body)
		}
		job.Schedule[i] = k
	}
	if st.gen, err = startLoadgen(job); err != nil {
		st.f.close()
		return nil, err
	}
	// The generator holds the request bodies now. Dropping this process's
	// references leaves the fleet's garbage collector with the fleet's own
	// heap, as in a sigrecd process, rather than the benchmark's inputs.
	st.warm = nil
	for i := range st.timed {
		st.timed[i].body = nil
	}
	return st, nil
}

// startFleet starts three shards and a router on loopback listeners.
// Shards run with sigrecd's defaults except the cache size; the router
// with sigrec-router's (hedging on).
func startFleet(conns int) (*fleet, error) {
	f := &fleet{tr: newFleetTrace(), ring: cluster.NewRing(0)}
	ids := make([]string, fleetShards)
	lns := make([]net.Listener, fleetShards)
	peers := map[string]string{}
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		ids[i] = "s" + strconv.Itoa(i+1)
		lns[i] = ln
		peers[ids[i]] = "http://" + ln.Addr().String()
		f.ring.Add(ids[i])
	}
	fillClient := &http.Client{Transport: &fillTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: f.tr}}
	var shardAddrs []cluster.ShardAddr
	for i, id := range ids {
		// Each shard builds its own ring, as separate sigrecd processes do.
		ring := cluster.NewRing(0)
		for _, p := range ids {
			ring.Add(p)
		}
		others := map[string]string{}
		for p, u := range peers {
			if p != id {
				others[p] = u
			}
		}
		srv := server.New(server.Config{
			Timeout:      2 * time.Second,
			CacheEntries: fleetCacheEntries,
			CacheFill:    cluster.PeerFill(ring, id, others, fillClient, 0),
			Service:      id,
			TracePeers:   others,
		})
		srv.Mount("POST "+cluster.FillPath, cluster.FillHandler(srv.Cache(), 0))
		f.shards = append(f.shards, srv)
		f.serve(lns[i], &timedHandler{next: srv.Handler(), tr: f.tr, kind: layerShard})
		shardAddrs = append(shardAddrs, cluster.ShardAddr{ID: id, URL: peers[id]})
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:    shardAddrs,
		Hedge:     true,
		Transport: &routerTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: f.tr},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.serve(ln, &timedHandler{next: rt.Handler(), tr: f.tr, kind: layerRouter})
	f.client = newClient(conns)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.WaitPoolHealthy(ctx, f.client, f.url+"/healthz", fleetShards); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet not healthy: %w", err)
	}
	return f, nil
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, hs)
	go func() { _ = hs.Serve(ln) }()
}

// close stops the router's pollers, the listeners and the shard pools,
// and waits for each.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
		f.router = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
		}
	}
	f.servers = nil
	for _, s := range f.shards {
		_ = s.Drain(ctx)
	}
	f.shards = nil
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// sent is one completed request as the client saw it.
type sent struct {
	// due is when the schedule wanted the request sent, start when a
	// connection was free to send it.
	due, start, end time.Time
	status          int
	err             error
	body            []byte
	attemptID       string
	shard           string
}

// phase is one schedule's client-side record.
type phase struct {
	sent    []sent
	lat     []float64 // ms from due time; fleetTimeout when failed
	lag     []float64 // ms a connection began sending it after its due time
	elapsed time.Duration
	ok      int
	failed  int
}

// closedLoop sends schedule as fast as conns connections allow (the
// warm-up).
func (f *fleet) closedLoop(schedule []request, conns int) *phase {
	ph := &phase{sent: make([]sent, len(schedule))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				ph.sent[i].due = time.Now()
				send(f.client, f.url, i, schedule[i].body, &ph.sent[i])
			}
		}()
	}
	wg.Wait()
	ph.finish(start)
	return ph
}

func (ph *phase) finish(start time.Time) {
	var last time.Time
	for i := range ph.sent {
		s := &ph.sent[i]
		ph.lag = append(ph.lag, ms(s.start.Sub(s.due)))
		if s.err != nil || s.status != http.StatusOK {
			// A failed or refused request counts as beyond the latency
			// limit: the client's timeout.
			ph.failed++
			ph.lat = append(ph.lat, ms(fleetTimeout))
		} else {
			ph.ok++
			ph.lat = append(ph.lat, ms(s.end.Sub(s.due)))
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	ph.elapsed = last.Sub(start)
}

// check verifies every answer against the ground truth after the window:
// a 200 whose JSON carries each declared function's selector and
// canonical type list.
func (ph *phase) check(schedule []request, out *outcome) {
	out.attempted += int64(len(schedule))
	out.failed += int64(ph.failed)
	for i := range ph.sent {
		s := &ph.sent[i]
		q := &schedule[i]
		out.labels += int64(len(q.labels))
		if s.err != nil || s.status != http.StatusOK {
			out.problem("request %d: status %d err %v", i, s.status, s.err)
			continue
		}
		var resp server.RecoverResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			out.failed++
			out.problem("request %d: bad response JSON: %v", i, err)
			continue
		}
		out.correct += int64(scoreResponse(q.labels, resp.Functions))
	}
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, by binary
// search over the cumulative weights (math/rand's Zipf needs s > 1).
type zipf struct {
	r   *rand.Rand
	cdf []float64
}

func newZipf(r *rand.Rand, s float64, n int) *zipf {
	z := &zipf{r: r, cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	return z
}

func (z *zipf) draw() int {
	return sort.SearchFloat64s(z.cdf, z.r.Float64()*z.cdf[len(z.cdf)-1])
}
