package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

// A failed request must count as beyond the latency limit without making
// any latency metric non-finite, so a run with failures still prints its
// result.
func TestFailedRequestsKeepMetricsFinite(t *testing.T) {
	start := time.Now()
	ph := &phase{sent: make([]sent, 200)}
	for i := range ph.sent {
		s := &ph.sent[i]
		s.due = start.Add(time.Duration(i) * time.Millisecond)
		s.start = s.due
		s.end = s.due.Add(time.Millisecond)
		switch {
		case i%3 == 0:
			s.err = errors.New("connection refused")
		case i%3 == 1:
			s.status = http.StatusTooManyRequests
		default:
			s.status = http.StatusOK
		}
	}
	ph.finish(start)
	if ph.failed != 134 || ph.ok != 66 {
		t.Fatalf("failed %d ok %d, want 134 and 66", ph.failed, ph.ok)
	}
	for _, v := range []float64{p99(ph.lat), p50(ph.lat)} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("latency metric %v is not finite", v)
		}
	}
	if got := p99(ph.lat); got != ms(fleetTimeout) {
		t.Fatalf("p99 %v, want the client timeout %v", got, ms(fleetTimeout))
	}
	res := result{Attempted: 200, Failed: int64(ph.failed), Metrics: map[string]metric{
		"latency_p99_ms": {Value: p99(ph.lat), Unit: "ms"},
	}}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
}
