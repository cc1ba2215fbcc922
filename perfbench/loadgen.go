package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The serving phase's open-loop generator runs in a child process of the
// benchmark (this binary with --loadgen), so it shares neither a Go
// scheduler nor a garbage collector with the fleet. In one process the
// shards' CPU-bound recoveries hold every P, the generator's timers fire
// late, and the benchmark would time its own lateness as fleet latency.
// A production caller reaches the router from another process too.
//
// The parent sends one genJob on the child's stdin in set-up, then one
// genRun per measured phase; the child answers each with a genResult on
// stdout. Closing the child's stdin ends it.

// genJob is the generator's input: the router, the offered rate, the
// connection count, and the timed schedule as indices into its distinct
// request bodies.
type genJob struct {
	URL      string
	Rate     float64
	Conns    int
	Bodies   [][]byte
	Schedule []int32
}

// genRun asks for Schedule[Lo:Hi] on the open-loop schedule.
type genRun struct{ Lo, Hi int }

// genSent is one request as the generator saw it, its times relative to
// the start of the run.
type genSent struct {
	Due, Start, End time.Duration
	Status          int
	Err             string
	Body            []byte
	AttemptID       string
	Shard           string
}

type genResult struct{ Sent []genSent }

// loadgen is the parent's handle on the generator process.
type loadgen struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	w     *bufio.Writer
	enc   *gob.Encoder
	dec   *gob.Decoder
}

// startLoadgen starts the generator and hands it job.
func startLoadgen(job genJob) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--loadgen")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &loadgen{cmd: cmd, stdin: stdin, w: bufio.NewWriter(stdin), dec: gob.NewDecoder(bufio.NewReader(stdout))}
	g.enc = gob.NewEncoder(g.w)
	if err := g.send(job); err != nil {
		g.close()
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return g, nil
}

func (g *loadgen) send(msg any) error {
	if err := g.enc.Encode(msg); err != nil {
		return err
	}
	return g.w.Flush()
}

// run sends Schedule[lo:hi] and returns the client's record of it.
func (g *loadgen) run(lo, hi int) (*phase, error) {
	if err := g.send(genRun{Lo: lo, Hi: hi}); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var res genResult
	if err := g.dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if len(res.Sent) != hi-lo {
		return nil, fmt.Errorf("load generator answered %d of %d requests", len(res.Sent), hi-lo)
	}
	base := time.Now()
	ph := &phase{sent: make([]sent, len(res.Sent))}
	for i, r := range res.Sent {
		s := &ph.sent[i]
		s.due, s.start, s.end = base.Add(r.Due), base.Add(r.Start), base.Add(r.End)
		s.status, s.body, s.attemptID, s.shard = r.Status, r.Body, r.AttemptID, r.Shard
		if r.Err != "" {
			s.err = errors.New(r.Err)
		}
	}
	ph.finish(base)
	return ph, nil
}

// close ends the generator and waits for it.
func (g *loadgen) close() {
	g.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = g.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = g.cmd.Process.Kill()
		<-done
	}
}

// runLoadgen is the child: it reads its job, then serves runs until its
// stdin closes.
func runLoadgen() error {
	dec := gob.NewDecoder(bufio.NewReader(os.Stdin))
	w := bufio.NewWriter(os.Stdout)
	enc := gob.NewEncoder(w)
	var job genJob
	if err := dec.Decode(&job); err != nil {
		return fmt.Errorf("read job: %w", err)
	}
	client := newClient(job.Conns)
	defer client.CloseIdleConnections()
	for {
		var run genRun
		if err := dec.Decode(&run); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("read run: %w", err)
		}
		if run.Lo < 0 || run.Hi > len(job.Schedule) || run.Lo > run.Hi {
			return fmt.Errorf("run [%d,%d) outside the schedule", run.Lo, run.Hi)
		}
		res := openLoop(client, job, run.Lo, run.Hi)
		if err := enc.Encode(res); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: fleetTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends Schedule[lo:hi] at job.Rate over job.Conns connections,
// each request due at a fixed offset from the start whether or not earlier
// ones have answered, and records each from its due time.
func openLoop(client *http.Client, job genJob, lo, hi int) genResult {
	interval := time.Duration(math.Round(float64(time.Second) / job.Rate))
	out := make([]sent, hi-lo)
	jobs := make(chan int, len(out)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < job.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				send(client, job.URL, lo+i, job.Bodies[job.Schedule[lo+i]], &out[i])
			}
		}()
	}
	for i := range out {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		out[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res := genResult{Sent: make([]genSent, len(out))}
	for i, s := range out {
		r := &res.Sent[i]
		r.Due, r.Start, r.End = s.due.Sub(start), s.start.Sub(start), s.end.Sub(start)
		r.Status, r.Body, r.AttemptID, r.Shard = s.status, s.body, s.attemptID, s.shard
		if s.err != nil {
			r.Err = s.err.Error()
		}
	}
	return res
}

// sleepUntil blocks until t in nanosleep, which the kernel wakes within
// its timer slack (about 50 µs). time.Sleep on an otherwise idle runtime
// waits in epoll with a whole-millisecond timeout, so every send would be
// up to a millisecond late and that lateness would read as fleet latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// send posts body to url's /v1/recover as request id b<i> and records the
// answer in s.
func send(client *http.Client, url string, i int, body []byte, s *sent) {
	s.start = time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/recover", bytes.NewReader(body))
	if err != nil {
		s.err = err
		s.end = time.Now()
		return
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Request-Id", "b"+strconv.Itoa(i))
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		s.end = time.Now()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.status = resp.StatusCode
	s.attemptID = resp.Header.Get("X-Request-Id")
	s.shard = resp.Header.Get("X-Sigrec-Shard")
}
