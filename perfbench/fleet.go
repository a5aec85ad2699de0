package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"parade/internal/fleet"
	"parade/internal/obs"
)

// fleetApps are the kernels fresh fleet cells draw from. CG is left out:
// one CG cell costs 20-40x any other, so it would be the whole tail, and
// cg-read already covers it.
var fleetApps = []string{"helmholtz", "ep", "md", "quad", "taskdep", "lockmix"}

// fleetFaults are the fault axis of a fresh cell: the ideal fabric, two
// fault profiles, and one crash schedule (node 1 restarts at barrier 1).
var fleetFaults = []struct{ profile, crash string }{{"", ""}, {"drop", ""}, {"chaos", ""}, {"", "1@1"}}

const (
	fleetBatch   = 48  // lines per batch, below the default queue bound of 64
	fleetFresh   = 1   // fresh cells per batch; the rest are cache hits
	fleetPrefill = 480 // cells executed into the WAL before timing (ten batches)
)

// fleetOpts are the known-effect probe's overrides.
type fleetOpts struct {
	fresh int // fresh cells per batch; -1 selects 0
	queue int // service admission bound (0 = default)
}

// fleetCell returns the k-th fresh cell of a run: the matrix type cycles
// with k and the fault seed is new for every k, so no fresh cell is ever
// in the cache.
func fleetCell(seed int64, k int) fleet.JobSpec {
	types := len(fleetApps) * 2 * len(fleetFaults)
	t := k % types
	f := fleetFaults[t%len(fleetFaults)]
	mode := []string{"hybrid", "sdsm"}[(t/len(fleetFaults))%2]
	app := fleetApps[t/(2*len(fleetFaults))]
	fs := int64(splitmix(uint64(seed)*0x100000001b3+uint64(k))>>33) + 1
	return fleet.JobSpec{App: app, Mode: mode, FaultProfile: f.profile, Crash: f.crash, Seed: fs}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fleetWorkload is fleet-matrix: one HTTP client POSTs JSONL batches to
// an in-process fleet.Service on loopback, WAL on, one pool worker.
type fleetWorkload struct {
	seed   int64
	opt    fleetOpts
	wal    string
	gold   map[string]golden
	svc    *fleet.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan error

	next    int                    // index of the next fresh cell
	recent  []fleetRecent          // most recent finished cells, newest last
	tr      atomic.Pointer[tracer] // the traced op in progress (handler span)
	tracing *tracer                // the tracer the service's obs hook feeds

	replay time.Duration // NewService over the WAL
}

type fleetRecent struct {
	spec  fleet.JobSpec
	state string // state_fingerprint of the executing run
}

func openFleet(seed int64, dir string, child bool, opt fleetOpts) (*fleetWorkload, error) {
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	w := &fleetWorkload{seed: seed, opt: opt, wal: filepath.Join(dir, "wal.jsonl"), gold: gold}
	if !child {
		// Pre-fill the WAL with earlier batches on a first service.
		if err := w.start(0); err != nil {
			return nil, err
		}
		for w.next < fleetPrefill {
			if ok, _ := w.batch(fleetBatch, fleetBatch); !ok {
				w.close()
				return nil, errors.New("pre-fill batch failed verification")
			}
		}
		w.stop()
	} else {
		// A cold start regenerates what the pre-fill finished; its first
		// op then resubmits those cells and must be served from the
		// replayed WAL without executing.
		for k := 0; k < fleetPrefill; k++ {
			w.remember(fleetCell(seed, k), "")
		}
		w.next = fleetPrefill
		w.opt.fresh = -1
	}
	if err := w.start(opt.queue); err != nil {
		return nil, err
	}
	return w, nil
}

// start opens a service over the WAL (replaying it) with admission bound
// queue (0 = the service default) and serves it on a loopback listener.
func (w *fleetWorkload) start(queue int) error {
	t0 := time.Now()
	svc, err := fleet.NewService(fleet.ServerOptions{Workers: 1, WALPath: w.wal, Queue: queue})
	if err != nil {
		return err
	}
	w.replay = time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Kill()
		return err
	}
	h := svc.Handler()
	w.svc = svc
	w.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		if tr := w.tr.Load(); tr != nil {
			tr.span("fleet.handler_ms", time.Since(t0))
		}
	})}
	w.url = "http://" + ln.Addr().String() + "/v1/jobs"
	w.client = &http.Client{Transport: &http.Transport{}}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	return nil
}

// stop shuts the HTTP server down, waits for it, and drains the service.
func (w *fleetWorkload) stop() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	_ = w.srv.Shutdown(context.Background()) // no request is in flight between ops
	<-w.served
	w.svc.Drain()
	w.srv = nil
}

func (w *fleetWorkload) close() { w.stop() }

func (w *fleetWorkload) walPath() string { return w.wal }

func (w *fleetWorkload) remember(spec fleet.JobSpec, state string) {
	w.recent = append(w.recent, fleetRecent{spec, state})
	if len(w.recent) > fleetBatch {
		w.recent = w.recent[len(w.recent)-fleetBatch:]
	}
}

func (w *fleetWorkload) op(tr *tracer) (bool, int64) {
	fresh := fleetFresh
	switch {
	case w.opt.fresh < 0:
		fresh = 0
	case w.opt.fresh > 0:
		fresh = w.opt.fresh
	}
	if tr != w.tracing {
		w.traceService(tr)
	}
	w.tr.Store(tr)
	ok, vns := w.batch(fleetBatch, fresh)
	w.tr.Store(nil)
	if tr != nil {
		tr.ops++
	}
	return ok, vns
}

// batch POSTs one batch of size lines, the first fresh of them new cells
// and the rest resubmissions of the most recently finished cells, and
// verifies every result line.
func (w *fleetWorkload) batch(size, fresh int) (bool, int64) {
	tr := w.tr.Load()
	t0 := time.Now()
	type line struct {
		spec  fleet.JobSpec
		fresh bool
		state string
	}
	var lines []line
	for i := 0; i < fresh; i++ {
		lines = append(lines, line{spec: fleetCell(w.seed, w.next), fresh: true})
		w.next++
	}
	for i := len(w.recent) - 1; i >= 0 && len(lines) < size; i-- {
		lines = append(lines, line{spec: w.recent[i].spec, state: w.recent[i].state})
	}
	var body bytes.Buffer
	for i, l := range lines {
		s := l.spec
		s.ID = fmt.Sprint(i)
		b, _ := json.Marshal(s) // a JobSpec of plain fields always marshals
		body.Write(b)
		body.WriteByte('\n')
	}
	exec0 := w.svc.Executor().Stats().Executions
	t1 := time.Now()
	if tr != nil {
		tr.span("bench.gen_ms", t1.Sub(t0))
	}

	resp, err := w.client.Post(w.url, "application/x-ndjson", &body)
	if err != nil {
		logFailure("fleet batch", err)
		return false, 0
	}
	defer resp.Body.Close()
	if tr != nil {
		tr.span("fleet.post_ms", time.Since(t1))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		logFailure("fleet batch", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
		return false, 0
	}
	ok := true
	var vns int64
	got := make([]*fleet.JobResult, len(lines))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 0; sc.Scan(); n++ {
		if n == 0 && tr != nil {
			tr.span("fleet.first_line_ms", time.Since(t1))
		}
		var r fleet.JobResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Index < 0 || r.Index >= len(lines) || got[r.Index] != nil {
			logFailure("fleet result line", fmt.Errorf("bad line %q: %v", sc.Bytes(), err))
			return false, vns
		}
		got[r.Index] = &r
		vns += r.TimeNs
	}
	if err := sc.Err(); err != nil {
		logFailure("fleet response", err)
		return false, vns
	}
	t2 := time.Now()
	for i, l := range lines {
		if err := w.checkLine(l.spec, l.fresh, l.state, got[i]); err != nil {
			logFailure(fmt.Sprintf("fleet %s/%s seed %d", l.spec.App, l.spec.Mode, l.spec.Seed), err)
			ok = false
			continue
		}
		if l.fresh {
			w.remember(l.spec, got[i].StateFingerprint)
		}
	}
	// Hits must never execute: the batch ran exactly its fresh cells.
	if d := w.svc.Executor().Stats().Executions - exec0; d != int64(fresh) {
		logFailure("fleet batch", fmt.Errorf("%d executions for %d fresh cells", d, fresh))
		ok = false
	}
	if tr != nil {
		tr.span("bench.verify_ms", time.Since(t2))
	}
	return ok, vns
}

// checkLine verifies one result: status ok; a fresh cell executed and
// matches the fault-free golden of its (app, mode) in result bits and
// final DSM state whatever its fault profile or crash schedule; a hit was
// served from the cache with the executing run's exact state fingerprint.
func (w *fleetWorkload) checkLine(spec fleet.JobSpec, fresh bool, state string, r *fleet.JobResult) error {
	switch {
	case r == nil:
		return errors.New("no result line")
	case r.Status != fleet.StatusOK:
		return fmt.Errorf("status %s: %s", r.Status, r.Error)
	case r.Cached == fresh:
		return fmt.Errorf("cached=%v for a fresh=%v cell", r.Cached, fresh)
	case !fresh && state != "" && r.StateFingerprint != state:
		return fmt.Errorf("hit state_fingerprint %s, executed %s", r.StateFingerprint, state)
	}
	g, ok := w.gold[fleetKey(spec.App, spec.Mode)]
	if !ok {
		return errors.New("no golden")
	}
	if r.ResultBits != g.Bits || r.MemHash != g.MemHash {
		return fmt.Errorf("result_bits %s mem_hash %s, golden %s %s", r.ResultBits, r.MemHash, g.Bits, g.MemHash)
	}
	return nil
}

// traceService routes the service's per-run obs metrics to tr as well as
// to its own /metrics fold. Call before a traced phase, between ops.
func (w *fleetWorkload) traceService(tr *tracer) {
	ex := w.svc.Executor()
	fold := w.svc.Metrics().FoldRun
	w.tracing = tr
	if tr == nil {
		ex.Obs = fold
		return
	}
	ex.Obs = func(m *obs.Metrics) {
		fold(m)
		tr.addObs(m)
		tr.addCounters(countersFromObs(m))
	}
}

// fleetStats are the service counters the traced run differences.
type fleetStats struct {
	hits, misses, executions, appends int64
}

func (w *fleetWorkload) stats() fleetStats {
	c := w.svc.Cache().Stats()
	s := fleetStats{hits: c.Hits, misses: c.Misses, executions: w.svc.Executor().Stats().Executions}
	if wal := w.svc.WAL(); wal != nil {
		s.appends = wal.Stats().Appends
	}
	return s
}
