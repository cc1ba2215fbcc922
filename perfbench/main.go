// Command perfbench is the repository benchmark. It drives two seeded
// workloads through the program's public entry points and prints one JSON
// result line:
//
//	recover-cold   closed loop, nproc callers, core.RecoverContext over
//	               distinct generated contracts, no cache armed
//	scan-backfill  scan.Scanner backfills materialized synthetic chains,
//	               one after another, each pass into a fresh store, event
//	               log, checkpoint and EFSD
//
// recover-cold's traced run ends with a serving phase: Zipf traffic,
// sent open-loop by a child process of this binary, through a cluster
// router in front of three shards with peer fill (see fleet.go).
//
// Usage, from the repository root (run.sh builds the binary, then runs it
// with the same arguments):
//
//	bash perfbench/run.sh --workload recover-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//
// "all" runs each workload in its own process, one after another.
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, timed
// by wrapping each layer's public functions and seams from this package.
// Every run checks the program's outputs against the generator's ground
// truth and reports the check in "correct", "attempted" and "failed".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the check counts, the metric
// values by name (units come from BENCHMARK.json), and the workload's
// composition for the environment record.
type outcome struct {
	attempted, failed int64
	// labels counts the declared functions the checked outputs should
	// carry, correct those recovered with the right selector and types.
	labels, correct int64
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems    []string
	values      map[string]float64
	composition map[string]any
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"recover-cold":  runRecoverCold,
	"scan-backfill": runScanBackfill,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg runConfig
	var trace int
	var gen bool
	flag.BoolVar(&gen, "loadgen", false, "run as the serving phase's load generator, a child of the benchmark (job on stdin)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: recover-cold, scan-backfill, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/work", "working directory for stores, logs and checkpoints")
	flag.Parse()
	if gen {
		return runLoadgen()
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if cfg.workload == "all" {
		return runAll(cfg, trace)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}

	out, err := fn(cfg)
	if err != nil {
		return err
	}
	out.values["peak_rss_mb"] = peakRSSMB()
	errorRatio := ratio(float64(out.failed), float64(out.attempted))
	out.values["success_ratio"] = 1 - errorRatio
	out.values["sig_accuracy"] = ratio(float64(out.correct), float64(out.labels))

	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	res := result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(declared)),
	}
	for _, m := range declared {
		v, ok := out.values[m.Name]
		if !ok {
			if !cfg.trace {
				return fmt.Errorf("workload %s did not measure end-to-end metric %s", cfg.workload, m.Name)
			}
			// A layer the workload never enters reads zero: the bypass
			// is part of the evidence.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s is %v", m.Name, v))
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		out.problems = append(out.problems, "no operation attempted")
	}
	res.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	checks := map[string]any{
		"attempted":    out.attempted,
		"failed":       out.failed,
		"error_ratio":  errorRatio,
		"sig_accuracy": out.values["sig_accuracy"],
		"problems":     out.problems,
	}
	envLine, err := json.Marshal(map[string]any{"env": environment(cfg), "composition": out.composition, "checks": checks})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a child process of this binary, so each
// gets a fresh heap and its own memory high-water mark.
func runAll(cfg runConfig, trace int) error {
	for _, w := range []string{"recover-cold", "scan-backfill"} {
		cmd := exec.Command(os.Args[0],
			"--workload", w,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace),
			"--workdir", cfg.workDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
	}
	return nil
}

// specMetric is one metric declaration in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report, so the file stays the one source of
// truth for both.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, errors.New("benchmark spec declares no metrics")
	}
	return s, nil
}

// environment records what a result depends on besides the code.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     sourceDigest(),
		"pgo":        buildPGO(),
	}
}

// buildPGO is the profile the binary was built with, as the toolchain
// recorded it ("off" when none was used).
func buildPGO() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				return filepath.Base(s.Value)
			}
		}
	}
	return "off"
}
