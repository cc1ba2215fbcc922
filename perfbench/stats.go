package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"sigrec/internal/telemetry"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// segmentMedian splits xs (in time order) into n slices of equal count and
// returns the median over slices of f(slice). Timing metrics report it, so
// a burst of noise from outside the benchmark moves one slice, not the
// result.
func segmentMedian(xs []float64, n int, f func([]float64) float64) float64 {
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if g := xs[i*len(xs)/n : (i+1)*len(xs)/n]; len(g) > 0 {
			vals = append(vals, f(g))
		}
	}
	return median(vals)
}

func p50(xs []float64) float64 { return quantile(xs, 0.50) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocSample is a runtime/metrics reading of the allocator and GC.
type allocSample struct {
	bytes, objects, gcCycles float64
}

var allocMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readAlloc() allocSample {
	ms := make([]metrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return allocSample{bytes: val(ms[0]), objects: val(ms[1]), gcCycles: val(ms[2])}
}

// allocPerOp reports allocation and GC work between two readings per op.
func allocPerOp(v map[string]float64, a, b allocSample, ops int64) {
	n := float64(ops)
	v["core.alloc_bytes_per_op"] = ratio(b.bytes-a.bytes, n)
	v["core.allocs_per_op"] = ratio(b.objects-a.objects, n)
	v["runtime.gc_cycles_per_op"] = ratio(b.gcCycles-a.gcCycles, n)
}

// counters is a flat reading of a telemetry registry: plain counters by
// name, labeled counters as name{value}, histogram sums as name_sum.
type counters map[string]float64

func readCounters(reg *telemetry.Registry) counters {
	snap := reg.Snapshot()
	c := make(counters, len(snap.Counters))
	for k, v := range snap.Counters {
		c[k] = float64(v)
	}
	for k, lc := range snap.LabeledCounters {
		for lv, v := range lc.Values {
			c[k+"{"+lv+"}"] = float64(v)
		}
	}
	for k, h := range snap.Histograms {
		c[k+"_sum"] = float64(h.Sum)
	}
	return c
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 {
	return after[name] - before[name]
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// sourceDigest identifies the code under test: the git commit when the
// working directory is a checkout with .git, else a SHA-256 over the Go
// sources, module files and PGO profile (the benchmark may run from an
// exported tree with no git metadata).
func sourceDigest() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(sha))
			}
		} else if ref != "" {
			return "git:" + ref
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "default.pgo" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
