package otlp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// Config configures an Exporter. Endpoint and Registry are required; the
// rest defaults sensibly.
type Config struct {
	// Endpoint is the collector's base URL (e.g. http://127.0.0.1:4318);
	// the exporter POSTs to <Endpoint>/v1/traces and <Endpoint>/v1/metrics.
	Endpoint string
	// Interval is the flush cadence: queued spans are shipped at least
	// this often (earlier when a batch fills) and one metrics snapshot is
	// shipped per tick. <= 0 selects DefaultInterval.
	Interval time.Duration
	// ServiceName becomes the service.name resource attribute.
	ServiceName string
	// Resource holds additional resource attributes (shard id, build
	// info) attached to every export.
	Resource map[string]string
	// Registry is the metrics source; the exporter also registers its
	// own sigrec_otlp_* self-metrics here.
	Registry *telemetry.Registry
	// QueueSize bounds the finished-recovery intake queue; Enqueue drops
	// (and counts) when it is full. <= 0 selects DefaultQueueSize.
	QueueSize int
	// BatchSize is the record count that triggers an early trace flush.
	// <= 0 selects DefaultBatchSize.
	BatchSize int
	// Client is the HTTP client; nil selects one with a 10s timeout.
	Client *http.Client
	// Logger receives export-failure diagnostics; nil discards them.
	Logger *slog.Logger
}

// Exporter defaults.
const (
	DefaultInterval  = 10 * time.Second
	DefaultQueueSize = 4096
	DefaultBatchSize = 256
	// exportAttempts is how many times one batch is POSTed before it is
	// dropped; backoff doubles from exportBackoff between attempts.
	exportAttempts = 3
	exportBackoff  = 200 * time.Millisecond
)

// Exporter ships span trees and metric snapshots to an OTLP/HTTP
// collector. The hot path touches only Enqueue — a non-blocking channel
// send — while a single background goroutine owns batching, encoding,
// retries, and the metrics ticker. Create with New, start with Start,
// stop with Close (which flushes what is queued).
type Exporter struct {
	cfg      Config
	res      resource
	scope    scope
	queue    chan *obs.Record
	done     chan struct{}
	stopped  chan struct{}
	start    time.Time
	now      func() time.Time // injected for tests
	sleep    func(time.Duration)
	mSpans   *telemetry.Counter
	mBatches *telemetry.CounterVec
	mDropped *telemetry.CounterVec
	mFailed  *telemetry.CounterVec
	mQueue   *telemetry.Gauge
}

// New returns an unstarted Exporter. It registers the exporter's
// self-metrics in cfg.Registry immediately so they appear in /metrics
// even before the first export.
func New(cfg Config) *Exporter {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	reg := cfg.Registry
	e := &Exporter{
		cfg:     cfg,
		res:     buildResource(cfg.ServiceName, cfg.Resource),
		scope:   scope{Name: "sigrec/internal/otlp"},
		queue:   make(chan *obs.Record, cfg.QueueSize),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		start:   time.Now(),
		now:     time.Now,
		sleep:   time.Sleep,
	}
	e.mSpans = reg.Counter("sigrec_otlp_spans_exported_total")
	reg.SetHelp("sigrec_otlp_spans_exported_total",
		"OTLP spans successfully delivered to the collector.")
	e.mBatches = reg.CounterVec("sigrec_otlp_batches_total", "signal")
	reg.SetHelp("sigrec_otlp_batches_total",
		"OTLP export batches delivered, by signal (traces or metrics).")
	e.mDropped = reg.CounterVec("sigrec_otlp_dropped_total", "reason")
	reg.SetHelp("sigrec_otlp_dropped_total",
		"OTLP recovery records dropped without export, by reason (queue_full or send_failed).")
	e.mFailed = reg.CounterVec("sigrec_otlp_export_failures_total", "signal")
	reg.SetHelp("sigrec_otlp_export_failures_total",
		"OTLP export batches abandoned after all retries, by signal.")
	e.mQueue = reg.Gauge("sigrec_otlp_queue_depth")
	reg.SetHelp("sigrec_otlp_queue_depth",
		"Finished recoveries waiting in the OTLP export queue.")
	reg.OnSnapshot(func() { e.mQueue.Set(int64(len(e.queue))) })
	return e
}

// buildResource assembles the resource attributes, service.name first,
// the rest sorted for a stable wire encoding.
func buildResource(service string, extra map[string]string) resource {
	var res resource
	if service != "" {
		res.Attributes = append(res.Attributes, strAttr("service.name", service))
	}
	for _, k := range sortedKeys(extra) {
		res.Attributes = append(res.Attributes, strAttr(k, extra[k]))
	}
	return res
}

// Sink adapts the exporter to obs.Config.Sink.
func (e *Exporter) Sink() func(*obs.Record) {
	if e == nil {
		return nil
	}
	return e.Enqueue
}

// Enqueue offers one finished recovery for export. Non-blocking: when the
// queue is full the record is dropped and counted, never stalling the
// recovery worker that finished it. Safe for concurrent use.
func (e *Exporter) Enqueue(rec *obs.Record) {
	if e == nil || rec == nil {
		return
	}
	select {
	case e.queue <- rec:
	default:
		e.mDropped.With("queue_full").Inc()
	}
}

// Start launches the export loop. A nil Exporter (export off) is a no-op.
func (e *Exporter) Start() {
	if e == nil {
		return
	}
	go e.run()
}

// Close stops the loop, flushes any queued spans and one final metrics
// snapshot, and waits (bounded by ctx) for the loop to exit. A nil
// Exporter returns nil.
func (e *Exporter) Close(ctx context.Context) error {
	if e == nil {
		return nil
	}
	close(e.done)
	select {
	case <-e.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Exporter) run() {
	defer close(e.stopped)
	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	batch := make([]*obs.Record, 0, e.cfg.BatchSize)
	for {
		select {
		case rec := <-e.queue:
			batch = append(batch, rec)
			if len(batch) >= e.cfg.BatchSize {
				e.exportTraces(batch)
				batch = batch[:0]
			}
		case <-ticker.C:
			if len(batch) > 0 {
				e.exportTraces(batch)
				batch = batch[:0]
			}
			e.exportMetrics()
		case <-e.done:
			// Drain what is already queued, then ship a final snapshot so
			// the collector sees the terminal counter values.
			for {
				select {
				case rec := <-e.queue:
					batch = append(batch, rec)
					if len(batch) >= e.cfg.BatchSize {
						e.exportTraces(batch)
						batch = batch[:0]
					}
					continue
				default:
				}
				break
			}
			if len(batch) > 0 {
				e.exportTraces(batch)
			}
			e.exportMetrics()
			return
		}
	}
}

func (e *Exporter) exportTraces(batch []*obs.Record) {
	req, n := buildTracesRequest(e.res, e.scope, batch)
	if n == 0 {
		return
	}
	if e.post("/v1/traces", req) {
		e.mSpans.Add(uint64(n))
		e.mBatches.With("traces").Inc()
	} else {
		e.mDropped.With("send_failed").Add(uint64(len(batch)))
		e.mFailed.With("traces").Inc()
	}
}

func (e *Exporter) exportMetrics() {
	snap := e.cfg.Registry.Snapshot()
	req, _ := buildMetricsRequest(e.res, e.scope, snap,
		e.start.UnixNano(), e.now().UnixNano())
	if e.post("/v1/metrics", req) {
		e.mBatches.With("metrics").Inc()
	} else {
		e.mFailed.With("metrics").Inc()
	}
}

// post encodes body as JSON and POSTs it, retrying transient failures
// (connection errors, 429, 5xx) with doubling backoff. Returns whether
// the batch was accepted.
func (e *Exporter) post(path string, body any) bool {
	payload, err := json.Marshal(body)
	if err != nil {
		e.logf("otlp encode failed", "path", path, "err", err)
		return false
	}
	backoff := exportBackoff
	for attempt := 0; attempt < exportAttempts; attempt++ {
		if attempt > 0 {
			e.sleep(backoff)
			backoff *= 2
		}
		ok, retryable, err := e.postOnce(path, payload)
		if ok {
			return true
		}
		if !retryable {
			e.logf("otlp export rejected", "path", path, "err", err)
			return false
		}
		if attempt == exportAttempts-1 {
			e.logf("otlp export failed after retries", "path", path, "err", err)
		}
	}
	return false
}

func (e *Exporter) postOnce(path string, payload []byte) (ok, retryable bool, err error) {
	req, err := http.NewRequest(http.MethodPost, e.cfg.Endpoint+path, bytes.NewReader(payload))
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return false, true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return true, false, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return false, true, fmt.Errorf("collector returned %s", resp.Status)
	default:
		return false, false, fmt.Errorf("collector returned %s", resp.Status)
	}
}

func (e *Exporter) logf(msg string, args ...any) {
	if e.cfg.Logger != nil {
		e.cfg.Logger.Warn(msg, args...)
	}
}
