// Package daemon is the runtime the long-running sigrec binaries
// (sigrecd, sigrec-router, sigrec-scan) share: the flags they all define,
// the structured logger, OTLP export and the tracer feeding it, the SLO
// burn-rate engine, the -debug-addr listener, and the order those pieces
// shut down in.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/slo"
	"sigrec/internal/telemetry"
)

// Flags holds the flags every daemon defines.
type Flags struct {
	LogFormat    string
	LogLevel     string
	OTLPEndpoint string
	OTLPInterval time.Duration
	ServiceName  string
	TraceSlowest int
	Version      bool
}

// RegisterFlags defines the shared flags on fs. service is the
// -service-name default: the binary's own name.
func RegisterFlags(fs *flag.FlagSet, service string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.StringVar(&f.OTLPEndpoint, "otlp-endpoint", "", "OTLP/HTTP collector base URL, e.g. http://127.0.0.1:4318; span trees and metrics are exported there (empty = export off)")
	fs.DurationVar(&f.OTLPInterval, "otlp-interval", otlp.DefaultInterval, "OTLP flush cadence: trace batches at least this often, one metrics snapshot per tick")
	fs.StringVar(&f.ServiceName, "service-name", service, "service.name resource attribute on every OTLP export")
	fs.IntVar(&f.TraceSlowest, "trace-slowest", obs.DefaultSlowest, "requests retained in the flight recorder (0 = tracing and span export off)")
	fs.BoolVar(&f.Version, "version", false, "print version and exit")
	return f
}

// newLogger maps -log-format and -log-level, both case-insensitive, onto a
// slog.Logger writing to w.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// Runtime is one daemon's observability plumbing, built from its Flags.
type Runtime struct {
	Logger *slog.Logger
	// Tracer is nil when -trace-slowest is 0. Span export rides on it, so
	// without a tracer only metrics are exported.
	Tracer *obs.Tracer
	// SLO is nil until EvaluateSLO builds it.
	SLO *slo.Evaluator

	reg      *telemetry.Registry
	exporter *otlp.Exporter // nil when -otlp-endpoint is empty
	debug    *http.Server
}

// New builds the stderr logger, the OTLP exporter of reg (when
// -otlp-endpoint is set), and the tracer whose finished span trees feed
// that exporter. resource adds OTLP resource attributes beside
// service.name and service.version; empty values are left out.
func New(f *Flags, reg *telemetry.Registry, resource map[string]string) (*Runtime, error) {
	logger, err := newLogger(os.Stderr, f.LogFormat, f.LogLevel)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Logger: logger, reg: reg}
	if f.OTLPEndpoint != "" {
		ver, _ := obs.Version()
		res := map[string]string{"service.version": ver}
		for k, v := range resource {
			if v != "" {
				res[k] = v
			}
		}
		rt.exporter = otlp.New(otlp.Config{
			Endpoint:    f.OTLPEndpoint,
			Interval:    f.OTLPInterval,
			ServiceName: f.ServiceName,
			Resource:    res,
			Registry:    reg,
			Logger:      logger,
		})
	}
	if f.TraceSlowest > 0 {
		rt.Tracer = obs.New(obs.Config{Slowest: f.TraceSlowest, Sink: rt.exporter.Sink()})
	}
	return rt, nil
}

// EvaluateSLO builds the burn-rate engine of a recovering daemon:
// availability at 99.9% over the total/errors counter pair and, when
// latency > 0, 99% of recoveries under latency over the recovery latency
// summary. Alert transitions land in events when it is non-nil.
func (rt *Runtime) EvaluateSLO(total, errs string, latency time.Duration, events *eventlog.Writer) {
	objectives := []slo.Objective{{
		Name:   "availability",
		Target: 0.999,
		Source: slo.CounterSource{
			Total:  rt.reg.Counter(total),
			Errors: rt.reg.Counter(errs),
		},
	}}
	if latency > 0 {
		objectives = append(objectives, slo.Objective{
			Name:   fmt.Sprintf("latency_p99_%s", latency),
			Target: 0.99,
			Source: slo.LatencySource{
				Summary:     rt.reg.Summary("sigrec_recover_latency_microseconds", nil),
				ThresholdUS: float64(latency.Microseconds()),
			},
		})
	}
	rt.SLO = slo.New(slo.Config{Objectives: objectives, Registry: rt.reg, Events: events})
}

// Start launches the SLO engine's ticker and the exporter's send loop.
func (rt *Runtime) Start() {
	if rt.SLO != nil {
		rt.SLO.Start()
	}
	rt.exporter.Start()
}

// ServeDebug starts the -debug-addr listener serving h; an empty addr
// leaves it off.
func (rt *Runtime) ServeDebug(addr string, h http.Handler) {
	if addr == "" {
		return
	}
	rt.debug = &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := rt.debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			rt.Logger.Error("debug listener failed", "err", err)
		}
	}()
}

// Close stops the debug listener, then the SLO engine, then the exporter,
// which ships its queued spans and one final metrics snapshot within ctx.
// Call it after the daemon's own work has drained, so the collector sees
// the final recoveries and terminal counter values.
func (rt *Runtime) Close(ctx context.Context) {
	if rt.debug != nil {
		_ = rt.debug.Shutdown(ctx)
	}
	if rt.SLO != nil {
		rt.SLO.Close()
	}
	if err := rt.exporter.Close(ctx); err != nil {
		rt.Logger.Warn("otlp exporter close timed out", "err", err)
	}
}
