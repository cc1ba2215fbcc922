package daemon

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigrec/internal/telemetry"
)

// TestLoggerFlags pins the -log-format/-log-level contract every daemon
// shares: values are case-insensitive, and an unknown one is rejected with
// the accepted set in the message.
func TestLoggerFlags(t *testing.T) {
	cases := []struct {
		format, level string
		wantErr       string
	}{
		{"text", "INFO", ""},
		{"Json", "warn", ""},
		{"JSON", "Debug", ""},
		{"text", "error", ""},
		{"text", "verbose", "(want debug, info, warn, or error)"},
		{"xml", "info", "(want text or json)"},
	}
	for _, tc := range cases {
		logger, err := newLogger(io.Discard, tc.format, tc.level)
		if tc.wantErr == "" {
			if err != nil || logger == nil {
				t.Errorf("newLogger(%q, %q) = %v, %v; want a logger", tc.format, tc.level, logger, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("newLogger(%q, %q) error = %v, want it to contain %q", tc.format, tc.level, err, tc.wantErr)
		}
	}
}

// TestRuntimeLifecycle drives one runtime the way the daemons do: the
// tracer and both SLO objectives exist, and Close flushes a final metrics
// snapshot to the collector before returning.
func TestRuntimeLifecycle(t *testing.T) {
	var metricPosts atomic.Int64
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/metrics" {
			metricPosts.Add(1)
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer col.Close()

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs, "test")
	if err := fs.Parse([]string{"-otlp-endpoint", col.URL, "-otlp-interval", "1h", "-log-level", "ERROR"}); err != nil {
		t.Fatal(err)
	}
	rt, err := New(f, telemetry.NewRegistry(), map[string]string{"sigrec.shard": ""})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracer == nil {
		t.Fatal("default -trace-slowest built no tracer")
	}
	rt.EvaluateSLO("t_total", "t_errors", 50*time.Millisecond, nil)
	if n := len(rt.SLO.State()); n != 2 {
		t.Fatalf("SLO objectives = %d, want availability + latency", n)
	}
	rt.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rt.Close(ctx)
	if metricPosts.Load() == 0 {
		t.Fatal("Close returned without shipping the final metrics snapshot")
	}
}
