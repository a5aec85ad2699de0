package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"parade/internal/core"
	"parade/internal/hlrc"
	"parade/internal/sim"
	"parade/internal/stats"
)

// The scenario matrix is the repo's acceptance harness for its one
// claim: the ParADE hybrid runtime and the KDSM baseline compute the
// same results, and nothing the system layers on top — link faults,
// crash/restart recovery, protocol policies, event lanes — changes what
// a run computes. A Matrix is the cross product of its axes; every cell
// is a Spec, the same unit the fleet service fingerprints and runs, so
// the in-process harness and the service path assert on identical
// cells. Run executes every cell and check asserts the invariants
// across the cells that differ only in the axes each invariant
// quantifies over.

// Matrix is a scenario matrix over the axes of Spec. Empty axes select
// the defaults noted on each field. The fault-free and crash-free
// baseline cells are always part of the matrix (every fault and crash
// cell is compared against them), and link faults and crashes are
// never combined in one cell.
type Matrix struct {
	Apps    []string // default: every matrix app (MatrixAppNames)
	Modes   []string // default: hybrid, sdsm
	Fabrics []string // default: via
	Faults  []string // fault profiles (the fault-free "" is implied)
	// Crashes are crash schedules in parade-run syntax; the value "all"
	// expands, per node count, to the three default schedules (see
	// Matrix.crashes). The crash-free "" is implied.
	Crashes  []string
	Policies []string // default: "" (legacy) only
	Lanes    []int    // default: 0 (legacy kernel)
	Nodes    []int    // default: 4
	Seeds    []int64  // fault-plane seeds; default: 1
}

// crashes returns the crash axis of an n-node matrix, with "all"
// expanded to the default schedules — the first worker at the first
// barrier, the last node at the second, and a double crash of the
// first worker — and the crash-free baseline first.
func (m Matrix) crashes(n int) []string {
	out := []string{""}
	for _, c := range m.Crashes {
		if c == "all" {
			out = append(out, "1@1", fmt.Sprintf("%d@2", n-1), "1@1,1@3")
		} else if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// Expand returns the matrix cells in canonical order.
func (m Matrix) Expand() []Spec {
	specs := []Spec{{}}
	specs = cross(specs, orDefault(m.Apps, MatrixAppNames()), func(s *Spec, v string) { s.App = v })
	specs = cross(specs, orDefault(m.Modes, MatrixModes()), func(s *Spec, v string) { s.Mode = v })
	specs = cross(specs, orDefault(m.Fabrics, []string{"via"}), func(s *Spec, v string) { s.Fabric = v })
	specs = cross(specs, orDefault(m.Nodes, []int{4}), func(s *Spec, v int) { s.Nodes = v })
	faults := []string{""}
	for _, f := range m.Faults {
		if f != "" {
			faults = append(faults, f)
		}
	}
	specs = cross(specs, faults, func(s *Spec, v string) { s.FaultProfile = v })
	specs = cross(specs, orDefault(m.Policies, []string{""}), func(s *Spec, v string) { s.Policy = v })
	specs = cross(specs, orDefault(m.Lanes, []int{0}), func(s *Spec, v int) { s.Lanes = v })
	specs = cross(specs, orDefault(m.Seeds, []int64{1}), func(s *Spec, v int64) { s.Seed = v })
	var out []Spec
	for _, s := range specs {
		for _, crash := range m.crashes(s.Nodes) {
			// Link faults and crash-stop failures are exercised separately.
			if s.FaultProfile == "" || crash == "" {
				s.Crash = crash
				out = append(out, s.Normalize())
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Canonical() < out[j].Canonical()
	})
	return out
}

// cross returns every spec combined with every axis value.
func cross[T any](specs []Spec, vals []T, set func(*Spec, T)) []Spec {
	out := make([]Spec, 0, len(specs)*len(vals))
	for _, s := range specs {
		for _, v := range vals {
			set(&s, v)
			out = append(out, s)
		}
	}
	return out
}

func orDefault[T any](vals, def []T) []T {
	if len(vals) == 0 {
		return def
	}
	return vals
}

// Validate checks every cell and returns the first cell's *SpecError.
func (m Matrix) Validate() error {
	for _, s := range m.Expand() {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Cell is the record of one executed matrix cell.
type Cell struct {
	Spec     Spec           `json:"spec"`
	Result   string         `json:"result"` // result-bits fingerprint
	MemHash  uint64         `json:"mem_hash"`
	Kernel   sim.Duration   `json:"kernel_ns"`
	Time     sim.Duration   `json:"time_ns"` // full-run virtual time
	Counters stats.Counters `json:"counters"`
	Err      string         `json:"err,omitempty"`
}

// Report is the outcome of a matrix run.
type Report struct {
	Matrix Matrix
	Cells  []Cell
	// Skipped lists crash cells whose schedule needs more barriers than
	// the app runs.
	Skipped []string
	// Wins lists the cells where the adaptive policy strictly beat every
	// fixed policy on wire bytes or virtual time.
	Wins     []string
	Failures []string
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// neverFires is the barrier of the armed baseline's crash event: far
// beyond any app, so the plan arms the crash regime without crashing.
const neverFires = 1 << 30

// Run validates the matrix, executes every cell, and checks the
// invariants. A non-nil error means the matrix is invalid and nothing
// ran; violated invariants are Report.Failures.
func (m Matrix) Run() (Report, error) {
	if err := m.Validate(); err != nil {
		return Report{}, err
	}
	specs := m.Expand()
	jobs := make([]cellJob, len(specs))
	hasCrash := false
	for i, s := range specs {
		jobs[i] = cellJob{spec: s}
		hasCrash = hasCrash || s.Crash != ""
	}
	// Crash baselines: with crash cells present, every baseline also runs
	// with an empty crash plan (which must be inert) and, in lane mode,
	// with an armed never-firing plan. An armed plan switches the lane
	// kernel to its serialized crash regime, a deterministic schedule of
	// its own, so lane-mode crash cells compare against it; in legacy
	// mode the kernels coincide and the baseline itself is the reference.
	inertAt, armedAt := map[axes]int{}, map[axes]int{}
	for _, s := range specs {
		if !hasCrash || s.FaultProfile != "" || s.Crash != "" {
			continue
		}
		inertAt[axesOf(s)] = len(jobs)
		jobs = append(jobs, cellJob{spec: s, tweak: func(cfg *core.Config) { cfg.Crash = &hlrc.CrashPlan{} }})
		if s.Lanes > 0 {
			armed := s
			armed.Crash = fmt.Sprintf("1@%d", neverFires)
			armedAt[axesOf(s)] = len(jobs)
			jobs = append(jobs, cellJob{spec: armed})
		}
	}
	ran := runCells(jobs)
	pick := func(at map[axes]int) map[axes]Cell {
		out := make(map[axes]Cell, len(at))
		for k, j := range at {
			out[k] = ran[j]
		}
		return out
	}
	barriers := map[axes]int64{}
	for _, c := range ran[:len(specs)] {
		barriers[axesOf(c.Spec)] = c.Counters.Barriers
	}
	rep := Report{Matrix: m}
	for _, c := range ran[:len(specs)] {
		// A schedule beyond the app's last barrier never fires; it is
		// reported, not checked.
		have := barriers[axesOf(c.Spec).baseline()]
		if need := maxBarrier(c.Spec.Crash); c.Err == "" && int64(need) > have {
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: needs barrier %d, app runs only %d",
				cellName(c.Spec), need, have))
			continue
		}
		rep.Cells = append(rep.Cells, c)
	}
	rep.Failures, rep.Wins = check(rep.Cells, pick(inertAt), pick(armedAt))
	return rep, nil
}

// maxBarrier returns the latest barrier a valid crash schedule names.
func maxBarrier(crash string) int {
	events, _ := ParseCrash(crash)
	max := 0
	for _, ev := range events {
		if ev.Barrier > max {
			max = ev.Barrier
		}
	}
	return max
}

// cellJob is one run: a cell's spec plus an optional config adjustment
// the spec cannot express (the empty crash plan of the inertness check).
type cellJob struct {
	spec  Spec
	tweak func(*core.Config)
}

// runCells executes the jobs on up to GOMAXPROCS host workers. A run is
// a pure function of its configuration, so the results do not depend on
// how the host schedules them.
func runCells(jobs []cellJob) []Cell {
	out := make([]Cell, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				out[i] = runCell(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func runCell(job cellJob) Cell {
	c := Cell{Spec: job.spec}
	cfg, err := job.spec.BuildConfig()
	if err != nil {
		c.Err = err.Error()
		return c
	}
	if job.tweak != nil {
		job.tweak(&cfg)
	}
	app, _ := MatrixAppByName(job.spec.App) // validated
	bits, kernel, rep, err := app.Run(cfg)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.Result, c.MemHash, c.Kernel, c.Time, c.Counters = bits, rep.MemHash, kernel, rep.Time, rep.Counters
	return c
}

// axes is a cell's position in the matrix; the invariants group cells
// by zeroing the axes they quantify over.
type axes struct {
	app, mode, fabric, fault, crash, policy string
	lanes, nodes                            int
	seed                                    int64
}

func axesOf(s Spec) axes {
	return axes{s.App, s.Mode, s.Fabric, s.FaultProfile, s.Crash, s.Policy, s.Lanes, s.Nodes, s.Seed}
}

// baseline is the fault-free, crash-free cell of the same regime.
func (k axes) baseline() axes {
	k.fault, k.crash = "", ""
	return k
}

// cellName labels a cell in failures and tables.
func cellName(s Spec) string {
	name := fmt.Sprintf("%s/%s/%s n%d", s.App, s.Mode, s.Fabric, s.Nodes)
	for _, kv := range [][2]string{{"fault", s.FaultProfile}, {"crash", s.Crash}, {"policy", s.Policy}} {
		if kv[1] != "" {
			name += " " + kv[0] + "=" + kv[1]
		}
	}
	if s.Lanes > 0 {
		name += fmt.Sprintf(" lanes=%d", s.Lanes)
	}
	if s.Seed != 1 {
		name += fmt.Sprintf(" seed=%d", s.Seed)
	}
	return name
}

// check is the matrix's one invariant checker. Across the cells that
// differ only in the named axes it asserts:
//
//   - fault, crash, policy, lanes, seed: identical result bits — the
//     system may move data differently, never compute differently;
//   - fault: identical final DSM state (MemHash) to the fault-free
//     baseline, and at least one retransmit per profile somewhere in
//     the matrix, while every baseline retransmits and drops nothing;
//   - crash: identical MemHash to the crash-free baseline (in lane mode
//     the armed never-firing one), crashes = restarts = events,
//     recoveries >= events, and checkpoint traffic; an empty crash plan
//     leaves the run untouched (time, MemHash, bytes);
//   - policy: "invalidate" is the legacy "" protocol spelled out,
//     identical in time, MemHash, and bytes;
//   - positive lane counts: identical virtual time and MemHash.
//
// It also returns the cells where the adaptive policy strictly beat
// every fixed policy on virtual time or wire bytes.
func check(cells []Cell, inert, armed map[axes]Cell) (failures, wins []string) {
	fail := func(c Cell, format string, args ...any) {
		failures = append(failures, cellName(c.Spec)+": "+fmt.Sprintf(format, args...))
	}
	byAxes := map[axes]Cell{}
	for _, c := range cells {
		if c.Err == "" {
			byAxes[axesOf(c.Spec)] = c
		}
	}
	same := func(a, b Cell) bool {
		return a.Result == b.Result && a.MemHash == b.MemHash && a.Time == b.Time && a.Counters.Bytes == b.Counters.Bytes
	}
	resultRef, laneRef := map[axes]Cell{}, map[axes]Cell{}
	retransmits := map[string]int64{}
	won := map[string]bool{}
	for _, c := range cells {
		if c.Err != "" {
			fail(c, "run error: %s", c.Err)
			continue
		}
		k := axesOf(c.Spec)
		rk := axes{app: k.app, mode: k.mode, fabric: k.fabric, nodes: k.nodes}
		if ref, ok := resultRef[rk]; !ok {
			resultRef[rk] = c
		} else if c.Result != ref.Result {
			fail(c, "result bits diverged from %s", cellName(ref.Spec))
		}
		base, haveBase := byAxes[k.baseline()]
		cnt := c.Counters
		switch {
		case c.Spec.FaultProfile == "" && c.Spec.Crash == "":
			if cnt.Retransmits != 0 || cnt.InjectedDrops != 0 {
				fail(c, "%d retransmits, %d drops on the ideal fabric", cnt.Retransmits, cnt.InjectedDrops)
			}
			if in, ok := inert[k]; ok && !same(in, c) {
				fail(c, "empty crash plan perturbed the run (time %v vs %v)%s", in.Time, c.Time, errSuffix(in))
			}
			if ar, ok := armed[k]; ok && (ar.Err != "" || ar.Counters.Crashes != 0) {
				fail(c, "armed never-firing baseline crashed%s", errSuffix(ar))
			}
		case c.Spec.FaultProfile != "":
			retransmits[c.Spec.FaultProfile] += cnt.Retransmits
			if haveBase && c.MemHash != base.MemHash {
				fail(c, "final DSM state diverged from the fault-free run")
			}
		default:
			ref, ok := base, haveBase
			if k.lanes > 0 {
				ref, ok = armed[k.baseline()]
			}
			if ok && c.MemHash != ref.MemHash {
				fail(c, "final DSM state diverged from the crash-free run")
			}
			events, _ := ParseCrash(c.Spec.Crash)
			if want := int64(len(events)); cnt.Crashes != want || cnt.NodeRestarts != want {
				fail(c, "%d crashes, %d restarts injected, want %d each", cnt.Crashes, cnt.NodeRestarts, want)
			}
			if cnt.Recoveries < int64(len(events)) {
				fail(c, "%d recoveries for %d crash events", cnt.Recoveries, len(events))
			}
			if cnt.CkptMsgs == 0 {
				fail(c, "no checkpoint traffic")
			}
		}
		if c.Spec.Policy == hlrc.PolicyInvalidate {
			lk := k
			lk.policy = hlrc.PolicyLegacy
			if leg, ok := byAxes[lk]; ok && !same(leg, c) {
				fail(c, "explicit invalidate diverged from the legacy protocol (time %d vs %d, bytes %d vs %d)",
					c.Time, leg.Time, cnt.Bytes, leg.Counters.Bytes)
			}
		}
		if k.lanes > 0 {
			lk := k
			lk.lanes = -1
			if ref, ok := laneRef[lk]; !ok {
				laneRef[lk] = c
			} else if c.Time != ref.Time || c.MemHash != ref.MemHash {
				fail(c, "not bit-identical to %d lanes (time %d vs %d)", ref.Spec.Lanes, c.Time, ref.Time)
			}
		}
		if c.Spec.Policy == hlrc.PolicyAdaptive && !won[c.Spec.Canonical()] {
			if win := adaptiveWin(c, k, byAxes); win != "" {
				won[c.Spec.Canonical()] = true
				wins = append(wins, cellName(c.Spec)+": adaptive beats every fixed policy on "+win)
			}
		}
	}
	var faults []string
	for f := range retransmits {
		faults = append(faults, f)
	}
	sort.Strings(faults)
	for _, f := range faults {
		if retransmits[f] == 0 {
			failures = append(failures, fmt.Sprintf("profile %q: no retransmit observed anywhere in the matrix (injection not exercised)", f))
		}
	}
	return failures, wins
}

func errSuffix(c Cell) string {
	if c.Err == "" {
		return ""
	}
	return ": " + c.Err
}

// adaptiveWin reports on which metric the adaptive cell strictly beat
// every fixed-policy cell of its group ("" if it did not, or if the
// matrix ran no fixed policy there).
func adaptiveWin(adp Cell, k axes, byAxes map[axes]Cell) string {
	timeWin, bytesWin, fixed := true, true, 0
	for _, pol := range []string{hlrc.PolicyLegacy, hlrc.PolicyInvalidate, hlrc.PolicyUpdate} {
		k.policy = pol
		f, ok := byAxes[k]
		if !ok {
			continue
		}
		fixed++
		timeWin = timeWin && adp.Time < f.Time
		bytesWin = bytesWin && adp.Counters.Bytes < f.Counters.Bytes
	}
	switch {
	case fixed == 0:
		return ""
	case timeWin && bytesWin:
		return "virtual time and wire bytes"
	case timeWin:
		return "virtual time"
	case bytesWin:
		return "wire bytes"
	}
	return ""
}

// Render formats the report as an aligned text table plus the verdict.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "matrix %q: %d cells\n", r.Matrix.String(), len(r.Cells))
	fmt.Fprintf(&b, "%-9s %-6s %-3s %2s %4s %-9s %-7s %-10s %5s %12s %10s %7s %5s %5s %5s %5s %6s\n",
		"app", "mode", "fab", "n", "seed", "fault", "crash", "policy", "lanes",
		"time", "bytes", "retrans", "drops", "crash", "recov", "ckpt", "recl")
	for _, c := range r.Cells {
		s := c.Spec
		pol := s.Policy
		if pol == "" {
			pol = "legacy"
		}
		fmt.Fprintf(&b, "%-9s %-6s %-3s %2d %4d %-9s %-7s %-10s %5d ",
			s.App, s.Mode, s.Fabric, s.Nodes, s.Seed, orDash(s.FaultProfile), orDash(s.Crash), pol, s.Lanes)
		if c.Err != "" {
			fmt.Fprintf(&b, "ERROR: %s\n", c.Err)
			continue
		}
		n := c.Counters
		fmt.Fprintf(&b, "%12d %10d %7d %5d %5d %5d %5d %6d\n",
			c.Time, n.Bytes, n.Retransmits, n.InjectedDrops, n.Crashes, n.Recoveries, n.CkptMsgs, n.PolicyReclass)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "skip: %s\n", s)
	}
	for _, w := range r.Wins {
		fmt.Fprintf(&b, "WIN: %s\n", w)
	}
	if r.OK() {
		fmt.Fprintf(&b, "OK: every invariant held on all %d cells\n", len(r.Cells))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// WriteJSONL streams the report as JSON lines: a header with the axis
// string, one object per cell, then a summary with the skipped cells,
// wins, and failures.
func (r Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := struct {
		Schema string `json:"schema"`
		Matrix string `json:"matrix"`
	}{"parade-matrix/v1", r.Matrix.String()}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Skipped  []string `json:"skipped"`
		Wins     []string `json:"wins"`
		Failures []string `json:"failures"`
		OK       bool     `json:"ok"`
	}{r.Skipped, r.Wins, r.Failures, r.OK()})
}
