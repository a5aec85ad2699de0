package main

import (
	"bytes"
	"sync"
	"time"

	"parade/internal/obs"
	"parade/internal/stats"
)

// tracer collects the per-layer view of a traced phase: spans the
// benchmark times around its calls into each layer, the runs' protocol
// counters, the obs phase totals and histograms, and a CPU profile of the
// whole process. The fleet service feeds it from its worker goroutine, so
// every method locks.
type tracer struct {
	mu      sync.Mutex
	ops     int // ops of the traced phase (written by the op loop only)
	spanNs  map[string]int64
	ctr     stats.Counters
	phase   obs.PhaseCounters
	steal   obs.Histogram
	depWait obs.Histogram
	prof    bytes.Buffer // CPU profile of the phase, written by runtime/pprof
}

func newTracer() *tracer { return &tracer{spanNs: map[string]int64{}} }

func (t *tracer) span(name string, d time.Duration) {
	t.mu.Lock()
	t.spanNs[name] += d.Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) addCounters(c stats.Counters) {
	t.mu.Lock()
	t.ctr.Add(&c)
	t.mu.Unlock()
}

func (t *tracer) addObs(m *obs.Metrics) {
	if m == nil {
		return
	}
	tot := m.Total()
	steal, dep := m.Hist(obs.HistStealLatency), m.Hist(obs.HistDepWait)
	t.mu.Lock()
	t.phase.Add(&tot)
	t.steal.Merge(&steal)
	t.depWait.Merge(&dep)
	t.mu.Unlock()
}

// countersFromObs folds a run's per-node obs counters into the
// stats.Counters vocabulary, for the fleet service, whose runs are seen
// only through their obs metrics. Obs counts a collective once per rank,
// so the rank total is divided by the node count; it has no home
// migration counter, and a stolen task stands for a steal hit.
func countersFromObs(m *obs.Metrics) stats.Counters {
	var c stats.Counters
	n := m.Nodes()
	var collectives int64
	for i := 0; i < n; i++ {
		nc := m.Node(i)
		c.ReadFaults += nc.ReadFaults
		c.WriteFaults += nc.WriteFaults
		c.PageFetches += nc.FetchesIssued
		c.TwinsCreated += nc.Twins
		c.DiffsCreated += nc.DiffsCreated
		c.DiffBytes += nc.DiffBytes
		c.Invalidations += nc.Invalidations
		c.Barriers += nc.Barriers
		c.LockRequests += nc.LockRequests
		c.LockWaits += nc.LockWaits
		c.Messages += nc.MsgsSent
		c.Bytes += nc.BytesSent
		c.Retransmits += nc.Retransmits
		c.TasksExecuted += nc.TasksExecuted
		c.StealRequests += nc.StealRequests
		c.StealHits += nc.TasksStolen
		c.TaskDepsResolved += nc.DepsResolved
		collectives += nc.Collectives
	}
	if n > 0 {
		c.Allreduces = collectives / int64(n)
	}
	return c
}

// perLayer fills the traced run's metrics from phase p, half of whose
// ops ran traced; fs0 is the fleet service's counters before the phase.
func (t *tracer) perLayer(out map[string]metric, w workload, p phase, fs0 fleetStats) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := float64(t.ops)
	if ops == 0 {
		ops = 1
	}
	per := func(v int64) float64 { return float64(v) / ops }
	perPhaseOp := func(v int64) float64 { return float64(v) / float64(p.ops()) }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	shares, err := layerShares(t.prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		out[l.metric] = metric{shares[l.name], "frac"}
	}

	for _, s := range spanMetrics {
		out[s] = metric{per(t.spanNs[s]) / 1e6, "ms"}
	}
	var fs fleetStats
	out["fleet.replay_ms"] = metric{0, "ms"}
	if f, ok := w.(*fleetWorkload); ok {
		out["fleet.replay_ms"] = metric{float64(f.replay.Nanoseconds()) / 1e6, "ms"}
		fs = f.stats()
	}
	c := t.ctr
	out["netsim.msgs_per_op"] = metric{per(c.Messages), "count"}
	out["netsim.bytes_per_op"] = metric{per(c.Bytes), "B"}
	out["netsim.retransmit_frac"] = metric{frac(c.Retransmits, c.Messages), "frac"}
	out["mpi.collectives_per_op"] = metric{per(c.Bcasts + c.Allreduces + c.MPIBarrier), "count"}
	out["hlrc.read_faults_per_op"] = metric{per(c.ReadFaults), "count"}
	out["hlrc.write_faults_per_op"] = metric{per(c.WriteFaults), "count"}
	out["hlrc.page_fetches_per_op"] = metric{per(c.PageFetches), "count"}
	out["hlrc.invalidations_per_op"] = metric{per(c.Invalidations), "count"}
	out["hlrc.barriers_per_op"] = metric{per(c.Barriers), "count"}
	out["hlrc.barriers_per_host_s"] = metric{per(c.Barriers) / (float64(median(p.tracedNs)) / 1e9), "1/s"}
	out["hlrc.home_migrations_per_op"] = metric{per(c.HomeMigrations), "count"}
	out["hlrc.lock_wait_frac"] = metric{frac(c.LockWaits, c.LockRequests), "frac"}
	out["dsm.twins_per_op"] = metric{per(c.TwinsCreated), "count"}
	out["dsm.diffs_per_op"] = metric{per(c.DiffsCreated), "count"}
	out["dsm.diff_bytes_per_op"] = metric{per(c.DiffBytes), "B"}
	out["core.tasks_per_op"] = metric{per(c.TasksExecuted), "count"}
	out["core.steal_hit_frac"] = metric{frac(c.StealHits, c.StealRequests), "frac"}
	out["core.deps_resolved_per_op"] = metric{per(c.TaskDepsResolved), "count"}

	ph := t.phase
	us := func(ns int64) float64 { return per(ns) / 1e3 }
	out["hlrc.fetch_wait_us_per_op"] = metric{us(ph.FetchWaitNs), "us"}
	out["hlrc.flush_wait_us_per_op"] = metric{us(ph.FlushWaitNs), "us"}
	out["hlrc.barrier_wait_us_per_op"] = metric{us(ph.BarrierWaitNs), "us"}
	out["hlrc.lock_wait_us_per_op"] = metric{us(ph.LockWaitNs), "us"}
	out["mpi.collective_us_per_op"] = metric{us(ph.CollectiveNs), "us"}
	out["sim.cpu_wait_us_per_op"] = metric{us(ph.CPUWaitNs), "us"}
	out["core.steal_latency_us_p50"] = metric{float64(t.steal.Quantile(0.5)) / 1e3, "us"}
	out["core.dep_wait_us_p50"] = metric{float64(t.depWait.Quantile(0.5)) / 1e3, "us"}

	out["fleet.cache_hit_frac"] = metric{frac(fs.hits-fs0.hits, fs.hits-fs0.hits+fs.misses-fs0.misses), "frac"}
	out["fleet.executions_per_op"] = metric{perPhaseOp(fs.executions - fs0.executions), "count"}
	out["fleet.wal_appends_per_op"] = metric{perPhaseOp(fs.appends - fs0.appends), "count"}
	plain := p.opNs[:0:0]
	for i, ns := range p.opNs {
		if !traced(i) {
			plain = append(plain, ns)
		}
	}
	out["obs.overhead_frac"] = metric{frac(median(p.tracedNs), median(plain)) - 1, "frac"}
	out["host.ref_ms"] = metric{float64(refNominal) / 1e6 / p.scale, "ms"}
	return nil
}

// spanMetrics are the mean per-op durations of the benchmark's spans.
var spanMetrics = []string{
	"bench.gen_ms", "apps.run_ms", "bench.verify_ms",
	"fleet.post_ms", "fleet.first_line_ms", "fleet.handler_ms",
}
