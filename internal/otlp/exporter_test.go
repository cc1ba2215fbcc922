package otlp

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// collector is an in-process OTLP/HTTP receiver: it decodes every POST,
// tallies spans and metric batches, and can inject transient failures.
type collector struct {
	mu        sync.Mutex
	spans     []wireSpan
	metricReq []metricsRequest
	failNext  int // respond 503 to this many requests first
	srv       *httptest.Server
}

func newCollector(t *testing.T) *collector {
	c := &collector{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.failNext > 0 {
			c.failNext--
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		var req tracesRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("collector: bad traces body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		defer c.mu.Unlock()
		var req metricsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("collector: bad metrics body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.metricReq = append(c.metricReq, req)
	})
	c.srv = httptest.NewServer(mux)
	t.Cleanup(c.srv.Close)
	return c
}

func (c *collector) spanCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// finishRecovery runs one traced recovery through the tracer and returns
// after Finish (and therefore after the sink delivered it).
func finishRecovery(tr *obs.Tracer, id string) {
	_, rec := tr.StartRecovery(context.Background(), id)
	s := rec.Span("phase")
	s.End()
	rec.Finish(false, nil)
}

func TestExporterEndToEnd(t *testing.T) {
	col := newCollector(t)
	reg := telemetry.NewRegistry()
	exp := New(Config{
		Endpoint:    col.srv.URL,
		Interval:    time.Hour, // flushes come from Close, not the ticker
		ServiceName: "sigrecd-test",
		Resource:    map[string]string{"sigrec.shard": "s0"},
		Registry:    reg,
		BatchSize:   4,
	})
	tr := obs.New(obs.Config{Sink: exp.Sink()})
	exp.Start()
	const n = 10
	for i := 0; i < n; i++ {
		finishRecovery(tr, "req")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Each recovery is a 2-span tree; all must arrive (batched flushes
	// plus the drain on Close).
	if got := col.spanCount(); got != 2*n {
		t.Fatalf("collector saw %d spans, want %d", got, 2*n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sigrec_otlp_spans_exported_total"]; got != 2*n {
		t.Errorf("spans_exported_total = %d, want %d", got, 2*n)
	}
	if got := snap.LabeledCounters["sigrec_otlp_dropped_total"].Values; len(got) != 0 {
		t.Errorf("unexpected drops: %v", got)
	}
	// Close ships a final metrics snapshot; it must include the
	// exporter's own self-metrics.
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.metricReq) == 0 {
		t.Fatal("no metrics export received")
	}
	last := col.metricReq[len(col.metricReq)-1]
	found := false
	for _, m := range last.ResourceMetrics[0].ScopeMetrics[0].Metrics {
		if m.Name == "sigrec_otlp_spans_exported_total" {
			found = true
		}
	}
	if !found {
		t.Error("final metrics export missing exporter self-metrics")
	}
	res := last.ResourceMetrics[0].Resource.Attributes
	if len(res) == 0 || res[0].Key != "service.name" || *res[0].Value.StringValue != "sigrecd-test" {
		t.Errorf("resource attributes = %+v", res)
	}
}

func TestExporterRetry(t *testing.T) {
	col := newCollector(t)
	col.failNext = 2 // first two trace POSTs bounce with 503
	reg := telemetry.NewRegistry()
	exp := New(Config{Endpoint: col.srv.URL, Interval: time.Hour, Registry: reg})
	exp.sleep = func(time.Duration) {} // no real backoff in tests
	tr := obs.New(obs.Config{Sink: exp.Sink()})
	exp.Start()
	finishRecovery(tr, "retry-req")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := col.spanCount(); got != 2 {
		t.Fatalf("collector saw %d spans after retries, want 2", got)
	}
	snap := reg.Snapshot()
	if got := snap.LabeledCounters["sigrec_otlp_export_failures_total"].Values; len(got) != 0 {
		t.Errorf("batch marked failed despite retry success: %v", got)
	}
}

func TestExporterDropsWhenQueueFull(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Never started: the queue only fills. Unreachable endpoint is fine —
	// nothing sends.
	exp := New(Config{Endpoint: "http://127.0.0.1:0", Registry: reg, QueueSize: 4})
	tr := obs.New(obs.Config{Sink: exp.Sink()})
	for i := 0; i < 10; i++ {
		finishRecovery(tr, "q")
	}
	snap := reg.Snapshot()
	if got := snap.LabeledCounters["sigrec_otlp_dropped_total"].Values["queue_full"]; got != 6 {
		t.Errorf("queue_full drops = %d, want 6", got)
	}
}

// TestExporterNilSafe pins the export-off contract the daemons rely on:
// every method of a nil *Exporter is a no-op, so no caller guards it.
func TestExporterNilSafe(t *testing.T) {
	var exp *Exporter
	exp.Start()
	exp.Enqueue(nil)
	if exp.Sink() != nil {
		t.Error("nil exporter returned a non-nil sink")
	}
	if err := exp.Close(context.Background()); err != nil {
		t.Errorf("nil exporter Close = %v, want nil", err)
	}
}

func TestExporterGivesUpAfterRetries(t *testing.T) {
	col := newCollector(t)
	col.failNext = 100 // never recovers within the retry budget
	reg := telemetry.NewRegistry()
	exp := New(Config{Endpoint: col.srv.URL, Interval: time.Hour, Registry: reg})
	exp.sleep = func(time.Duration) {}
	tr := obs.New(obs.Config{Sink: exp.Sink()})
	exp.Start()
	finishRecovery(tr, "doomed")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.LabeledCounters["sigrec_otlp_dropped_total"].Values["send_failed"]; got != 1 {
		t.Errorf("send_failed drops = %d, want 1", got)
	}
	if got := snap.LabeledCounters["sigrec_otlp_export_failures_total"].Values["traces"]; got != 1 {
		t.Errorf("trace export failures = %d, want 1", got)
	}
	if got := snap.Counters["sigrec_otlp_spans_exported_total"]; got != 0 {
		t.Errorf("spans_exported_total = %d, want 0", got)
	}
}

// TestSelfMetricsLint guards the satellite requirement: every new
// sigrec_otlp_* family carries HELP text and survives the strict linter.
func TestSelfMetricsLint(t *testing.T) {
	reg := telemetry.NewRegistry()
	exp := New(Config{Endpoint: "http://127.0.0.1:0", Registry: reg})
	exp.Enqueue(nil) // nil-safe
	reg.CounterVec("sigrec_otlp_dropped_total", "reason").With("queue_full").Inc()
	reg.CounterVec("sigrec_otlp_batches_total", "signal").With("traces").Inc()
	reg.CounterVec("sigrec_otlp_export_failures_total", "signal").With("metrics").Inc()
	var b []byte
	buf := &writerBuf{b: b}
	if _, err := reg.WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(string(buf.b)); err != nil {
		t.Fatalf("otlp self-metrics fail lint: %v", err)
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
