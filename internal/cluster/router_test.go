package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/keccak"
	"sigrec/internal/server"
)

// stubShard is a fake sigrecd: /healthz, /metrics, and a pluggable
// /v1/recover. hits counts recover calls.
type stubShard struct {
	srv  *httptest.Server
	hits atomic.Int64
}

func newStubShard(t *testing.T, recover http.HandlerFunc) *stubShard {
	t.Helper()
	s := &stubShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `sigrec_recover_latency_microseconds{quantile="0.95"} 100`)
	})
	mux.HandleFunc("POST /v1/recover", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		recover(w, r)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// okRecover answers like a healthy shard: echoes the attempt id and
// returns an empty recovery.
func okRecover(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Request-Id", r.Header.Get("X-Request-Id"))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"functions":[]}`)
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func counterValue(rt *Router, name string) uint64 {
	return rt.Registry().Snapshot().Counters[name]
}

// A health-poll rising edge (shard back up after being down) must close
// an open breaker immediately: a restarted shard rejoins within one poll
// interval instead of sitting out the rest of its breaker cooldown.
// TestParseShards pins the one id=url list parser behind sigrecd's -peers
// and the router's -shards: order kept, blanks and a trailing "/" dropped,
// an empty spec empty (not an error), malformed or duplicate entries
// rejected.
func TestParseShards(t *testing.T) {
	cases := []struct {
		spec string
		want []ShardAddr
	}{
		{"s1=http://a:1/, s2=http://b:2", []ShardAddr{{"s1", "http://a:1"}, {"s2", "http://b:2"}}},
		{"  s2=http://b:2 ,,\ts1=http://a:1  ", []ShardAddr{{"s2", "http://b:2"}, {"s1", "http://a:1"}}},
		{"s1=http://a:1//", []ShardAddr{{"s1", "http://a:1/"}}},
		{"", nil},
		{" , ", nil},
	}
	for _, tc := range cases {
		got, err := ParseShards(tc.spec)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseShards(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	if urls := ShardURLs(cases[0].want); len(urls) != 2 || urls["s1"] != "http://a:1" || urls["s2"] != "http://b:2" {
		t.Errorf("ShardURLs = %v", urls)
	}

	for _, bad := range []string{
		"s1",                      // missing =
		"=http://a",               // empty id
		"s1=",                     // empty url
		"s1=http://a,s1=http://b", // duplicate id
		"s1=http://a, s2",         // one bad entry among good ones
	} {
		if got, err := ParseShards(bad); err == nil {
			t.Errorf("ParseShards(%q) = %v, accepted malformed input", bad, got)
		}
	}
}

func TestHealthRecoveryClosesBreaker(t *testing.T) {
	stub := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{
		Shards:          []ShardAddr{{ID: "s1", URL: stub.srv.URL}},
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
		HealthInterval:  time.Hour, // poll driven by hand below
	})
	sh := rt.shards["s1"]
	sh.healthy.Store(false)
	sh.breaker.Failure() // threshold 1: open, with an hour of cooldown left
	if sh.breaker.State() != BreakerOpen {
		t.Fatalf("breaker state = %d, want open", sh.breaker.State())
	}

	sh.poll(t.Context(), rt.client, rt.m)
	if !sh.healthy.Load() {
		t.Fatal("shard not healthy after successful poll")
	}
	if got := sh.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker state after health recovery = %d, want closed", got)
	}

	// A healthy poll with no edge must not touch the breaker.
	sh.breaker.Failure()
	sh.poll(t.Context(), rt.client, rt.m)
	if got := sh.breaker.State(); got != BreakerOpen {
		t.Fatalf("steady healthy poll changed breaker state to %d", got)
	}
}

// testCode is valid runtime bytecode input for the routing layer (the
// stubs never actually recover it).
const testCode = "0x60806040"

func postRecover(t *testing.T, h http.Handler, body, requestID string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/recover", strings.NewReader(body))
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRouterRoutesToOwner(t *testing.T) {
	a := newStubShard(t, okRecover)
	b := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{
		{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL},
	}})

	code, err := server.ParseBytecode([]byte(testCode))
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(0)
	ring.Add("s1")
	ring.Add("s2")
	owner, _ := ring.Owner(keccak.Sum256(code))

	rec := postRecover(t, rt.Handler(), testCode, "client-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sigrec-Shard"); got != owner {
		t.Fatalf("served by %q, ring owner is %q", got, owner)
	}
	// The echoed id is the forwarded attempt id: base plus a unique
	// attempt counter, joinable against the shard's event log.
	if id := rec.Header().Get("X-Request-Id"); !strings.HasPrefix(id, "client-1.") {
		t.Fatalf("X-Request-Id = %q, want client-1.<attempt>", id)
	}
	ownerStub, otherStub := a, b
	if owner == "s2" {
		ownerStub, otherStub = b, a
	}
	if ownerStub.hits.Load() != 1 || otherStub.hits.Load() != 0 {
		t.Fatalf("hits owner=%d other=%d, want 1/0", ownerStub.hits.Load(), otherStub.hits.Load())
	}
}

func TestRouterRejectsBadInput(t *testing.T) {
	a := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}}})

	for _, body := range []string{"", "zzzz", `{"bytecode":""}`} {
		rec := postRecover(t, rt.Handler(), body, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
	if a.hits.Load() != 0 {
		t.Fatalf("bad input reached a shard (%d hits)", a.hits.Load())
	}
	if got := counterValue(rt, "cluster_router_bad_input_total"); got != 3 {
		t.Fatalf("bad_input_total = %d, want 3", got)
	}
}

func TestRouterRetriesOnRingSuccessor(t *testing.T) {
	// Every shard 503s except one; the router must walk the ring sequence
	// to the healthy successor and still answer 200.
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	})
	up := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}, {ID: "s2", URL: up.srv.URL}},
	})

	rec := postRecover(t, rt.Handler(), testCode, "r-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if up.hits.Load() != 1 {
		t.Fatalf("healthy shard hits = %d, want 1", up.hits.Load())
	}
	// Whichever shard owns the key, the down shard is either the first
	// attempt (then a retry happened) or never needed.
	if down.hits.Load() > 0 && counterValue(rt, "cluster_router_retries_total") == 0 {
		t.Fatal("failed primary attempt not counted as a retry")
	}
}

func TestRouterAllShardsDown(t *testing.T) {
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"no"}`)
	})
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}}})

	rec := postRecover(t, rt.Handler(), testCode, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want upstream 503 relayed", rec.Code)
	}
	if got := counterValue(rt, "cluster_router_errors_total"); got != 1 {
		t.Fatalf("errors_total = %d, want 1", got)
	}
}

func TestRouterBreakerSkipsOpenShard(t *testing.T) {
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, `{"error":"boom"}`)
	})
	up := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}, {ID: "s2", URL: up.srv.URL}},
		// One failure opens the breaker; a long cooldown keeps it open for
		// the rest of the test.
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
	})

	for i := 0; i < 5; i++ {
		rec := postRecover(t, rt.Handler(), testCode, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
	}
	// The failing shard is tried at most once before its breaker opens;
	// every later request goes straight to the healthy shard.
	if down.hits.Load() > 1 {
		t.Fatalf("open-breaker shard was tried %d times, want <= 1", down.hits.Load())
	}
	if up.hits.Load() != 5 {
		t.Fatalf("healthy shard hits = %d, want 5", up.hits.Load())
	}
}

func TestRouterHedging(t *testing.T) {
	release := make(chan struct{})
	slow := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		okRecover(w, r)
	})
	defer close(release)
	fast := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: slow.srv.URL}, {ID: "s2", URL: fast.srv.URL}},
		Hedge:  true,
		// Force an immediate hedge regardless of scraped p95.
		HedgeMin: time.Millisecond,
		HedgeMax: time.Millisecond,
	})

	// Find a bytecode owned by the slow shard so the hedge targets the
	// fast successor. Vary the appended suffix until the ring cooperates.
	ring := NewRing(0)
	ring.Add("s1")
	ring.Add("s2")
	body := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("%s%02x", testCode, i)
		code, err := server.ParseBytecode([]byte(cand))
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := ring.Owner(keccak.Sum256(code)); owner == "s1" {
			body = cand
			break
		}
	}
	if body == "" {
		t.Fatal("no candidate bytecode owned by s1")
	}

	rec := postRecover(t, rt.Handler(), body, "h-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sigrec-Shard"); got != "s2" {
		t.Fatalf("winner = %q, want the hedged shard s2", got)
	}
	if got := counterValue(rt, "cluster_router_hedges_fired_total"); got != 1 {
		t.Fatalf("hedges_fired_total = %d, want 1", got)
	}
	if got := counterValue(rt, "cluster_router_hedges_won_total"); got != 1 {
		t.Fatalf("hedges_won_total = %d, want 1", got)
	}
}

func TestRouterBatch(t *testing.T) {
	a := newStubShard(t, okRecover)
	b := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{
		{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL},
	}})

	var in bytes.Buffer
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&in, "%s%02x\n", testCode, i)
	}
	in.WriteString("not-hex\n")

	req := httptest.NewRequest(http.MethodPost, "/v1/recover/batch", &in)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	got := map[int]server.BatchResult{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var br server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		got[br.Index] = br
	}
	if len(got) != 9 {
		t.Fatalf("got %d lines, want 9", len(got))
	}
	for i := 0; i < 8; i++ {
		if got[i].Error != "" {
			t.Errorf("line %d: unexpected error %q", i, got[i].Error)
		}
	}
	if got[8].Error == "" {
		t.Error("malformed line 8 did not produce an error result")
	}
	if a.hits.Load()+b.hits.Load() != 8 {
		t.Fatalf("shard hits = %d, want 8", a.hits.Load()+b.hits.Load())
	}
}

func TestRouterHealthz(t *testing.T) {
	a := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}}})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var h struct {
		Status string `json:"status"`
		Shards []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != 1 || !h.Shards[0].Healthy {
		t.Fatalf("healthz = %+v", h)
	}
}

// --- peer cache fill ---

// mustResult builds a small but fully featured recovery result: typed
// inputs, per-parameter rule trails, language, rule stats.
func mustResult(t *testing.T) core.Result {
	t.Helper()
	sig, err := abi.ParseSignature("f(uint256,bytes[])")
	if err != nil {
		t.Fatal(err)
	}
	var sel abi.Selector
	copy(sel[:], []byte{0xde, 0xad, 0xbe, 0xef})
	res := core.Result{Functions: []core.RecoveredFunction{{
		Selector:   sel,
		Inputs:     sig.Inputs,
		ParamRules: [][]core.RuleID{{core.RuleID(4)}, {core.RuleID(1), core.RuleID(2)}},
		Language:   core.LangVyper,
	}}}
	res.Rules[4] = 1
	res.Rules[1] = 1
	res.Rules[2] = 1
	return res
}

func TestFillPayloadRoundTrip(t *testing.T) {
	want := mustResult(t)
	got, outcome, err := decodeFill(encodeFill(want, nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if outcome != nil {
		t.Fatalf("outcome = %v, want nil", outcome)
	}
	assertResultEqual(t, got, want)

	// The no-functions outcome survives too.
	_, outcome, err = decodeFill(encodeFill(core.Result{}, core.ErrNoFunctions))
	if err != nil || outcome != core.ErrNoFunctions {
		t.Fatalf("no-functions round trip: outcome=%v err=%v", outcome, err)
	}
}

func assertResultEqual(t *testing.T, got, want core.Result) {
	t.Helper()
	if len(got.Functions) != len(want.Functions) {
		t.Fatalf("functions = %d, want %d", len(got.Functions), len(want.Functions))
	}
	for i := range want.Functions {
		g, w := got.Functions[i], want.Functions[i]
		if g.Selector != w.Selector {
			t.Errorf("fn %d selector = %s, want %s", i, g.Selector, w.Selector)
		}
		if g.TypeList() != w.TypeList() {
			t.Errorf("fn %d types = %s, want %s", i, g.TypeList(), w.TypeList())
		}
		if g.Language != w.Language {
			t.Errorf("fn %d language = %s, want %s", i, g.Language, w.Language)
		}
		if fmt.Sprint(g.ParamRules) != fmt.Sprint(w.ParamRules) {
			t.Errorf("fn %d rules = %v, want %v", i, g.ParamRules, w.ParamRules)
		}
	}
	if got.Rules != want.Rules {
		t.Errorf("rule stats = %v, want %v", got.Rules, want.Rules)
	}
}

func TestPeerFill(t *testing.T) {
	code, err := server.ParseBytecode([]byte(testCode))
	if err != nil {
		t.Fatal(err)
	}
	want := mustResult(t)

	// The owner shard has the result cached; its fill endpoint serves it.
	ownerCache := core.NewCache(8)
	if _, err := ownerCache.GetOrCompute(code, func() (core.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	owner := httptest.NewServer(FillHandler(ownerCache, 0))
	defer owner.Close()

	// A two-shard ring where "owner" owns the key, seen from "other".
	ring := NewRing(0)
	ring.Add("owner")
	ownedBy, _ := ring.Owner(keccak.Sum256(code))
	if ownedBy != "owner" {
		t.Fatalf("single-shard ring owner = %q", ownedBy)
	}
	ring.Add("other")
	fill := PeerFill(ring, "other", map[string]string{"owner": owner.URL}, nil, 0)

	ownerID, _ := ring.Owner(keccak.Sum256(code))
	if ownerID == "other" {
		// The two-shard ring happens to give the key to us: peer fill
		// correctly reports a miss (we ARE the owner, nothing to fetch).
		if _, _, ok := fill(context.Background(), code); ok {
			t.Fatal("fill hit although this shard owns the key")
		}
		return
	}
	got, outcome, ok := fill(context.Background(), code)
	if !ok {
		t.Fatal("fill missed although the owner has the result cached")
	}
	if outcome != nil {
		t.Fatalf("outcome = %v", outcome)
	}
	assertResultEqual(t, got, want)

	// A cold owner is a clean miss, not an error.
	coldCache := core.NewCache(8)
	cold := httptest.NewServer(FillHandler(coldCache, 0))
	defer cold.Close()
	fillCold := PeerFill(ring, "other", map[string]string{"owner": cold.URL}, nil, 0)
	if ownerID != "other" {
		if _, _, ok := fillCold(context.Background(), code); ok {
			t.Fatal("fill hit on a cold owner")
		}
	}

	// End to end through the serving layer: a server configured with the
	// fill hook answers from the peer's cache without running a recovery.
	srv := server.New(server.Config{CacheFill: fill})
	rec := postRecover(t, srv.Handler(), testCode, "fill-e2e")
	if ownerID != "other" {
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		var resp server.RecoverResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Functions) != 1 || resp.Functions[0].Types != "(uint256,bytes[])" {
			t.Fatalf("filled response = %+v", resp)
		}
	}
}
