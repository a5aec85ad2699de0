package harness

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"parade/internal/core"
	"parade/internal/hlrc"
	"parade/internal/netsim"
)

// Spec is one simulation job: a cell of the scenario matrix, and the
// unit the fleet service validates, fingerprints, caches, and runs. The
// zero values of the optional fields select the matrices' defaults (4
// nodes, 1 thread per node, the VIA fabric, seed 1, no faults, no
// crashes, legacy kernel).
type Spec struct {
	// ID is an optional client handle echoed verbatim on the result line.
	// It does not participate in the config fingerprint.
	ID string `json:"id,omitempty"`
	// App names the kernel: helmholtz, ep, cg, md, quad, taskdep, or
	// lockmix (MatrixAppNames).
	App string `json:"app"`
	// Mode is the directive-execution mode: "hybrid" (the ParADE model)
	// or "sdsm" (the conventional KDSM baseline).
	Mode string `json:"mode"`
	// Fabric is the interconnect preset: "via" (default) or "tcp".
	Fabric string `json:"fabric,omitempty"`
	// Nodes is the cluster size (default 4).
	Nodes int `json:"nodes,omitempty"`
	// ThreadsPerNode is the computational thread count per node
	// (default 1, the matrices' configuration).
	ThreadsPerNode int `json:"threads_per_node,omitempty"`
	// Lanes selects the parallel simulation kernel: 0 (default) is the
	// legacy single-loop kernel, N > 0 runs per-node event lanes with at
	// most N lane workers. Any N > 0 produces bit-identical results, so
	// the config fingerprint collapses all positive values.
	Lanes int `json:"lanes,omitempty"`
	// Seed drives the fault plane (default 1). The simulation's own seed
	// stays at the configuration default so fault-free runs are
	// comparable across seeds.
	Seed int64 `json:"seed,omitempty"`
	// FaultProfile names a built-in netsim profile (drop, dup, reorder,
	// straggler, chaos); empty runs the ideal fabric.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Crash is a deterministic crash schedule in parade-run syntax:
	// comma-separated node@barrier events, e.g. "1@1" or "1@1,1@3".
	// Every event restarts (the full runtime cannot shrink).
	Crash string `json:"crash,omitempty"`
	// LockCaching enables lazy-release lock tokens. The lockmix kernel
	// always runs with them (MatrixApp.LockCaching) regardless of this
	// field.
	LockCaching bool `json:"lock_caching,omitempty"`
	// Policy selects the hlrc protocol policy: "" (legacy, the default),
	// "invalidate", "update", or "adaptive" (per-page online
	// classification; also derives the directive threshold from the
	// fabric).
	Policy string `json:"policy,omitempty"`
	// Hetero names a heterogeneous cluster profile (netsim.HeteroByName):
	// "uniform" (or empty, the default), "fasthalf", or "slow1". The
	// profile is part of the machine description and participates in the
	// config fingerprint. A kernel that pins its machine
	// (MatrixApp.Hetero) fills it in and rejects any other value.
	Hetero string `json:"hetero,omitempty"`
	// DeadlineMS, when positive, bounds the job's host wall-clock
	// execution time in milliseconds: a run over budget is cooperatively
	// canceled by the simulation kernel instead of hanging a worker.
	// Execution control, not simulation identity: it does not participate
	// in Canonical() or the config fingerprint — a cell that completed
	// under any deadline is the same cell.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// FieldError locates one invalid field of a Spec.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// SpecError is the typed validation error for a malformed Spec, with
// field-level detail (errors.As-matchable, mirroring
// core.LaneConfigError).
type SpecError struct {
	// Index is the zero-based line number of the spec within its batch
	// (-1 outside a batch context).
	Index  int
	Fields []FieldError
}

func (e *SpecError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invalid job spec")
	if e.Index >= 0 {
		fmt.Fprintf(&b, " (line %d)", e.Index)
	}
	for i, f := range e.Fields {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", f.Field, f.Reason)
	}
	return b.String()
}

// Normalize returns the spec with defaulted fields filled in: the
// canonical form that validation, fingerprinting, and execution all see.
func (s Spec) Normalize() Spec {
	if s.Fabric == "" {
		s.Fabric = "via"
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.ThreadsPerNode == 0 {
		s.ThreadsPerNode = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	app, _ := MatrixAppByName(s.App)
	if app.LockCaching {
		s.LockCaching = true
	}
	switch {
	case app.Hetero != "":
		// A pinned machine fills the empty field; any explicit value,
		// "uniform" included, is kept so Validate can reject it.
		if s.Hetero == "" {
			s.Hetero = app.Hetero
		}
	case s.Hetero == "uniform":
		s.Hetero = "" // the explicit name for the default machine
	}
	s.Crash = canonicalCrash(s.Crash)
	return s
}

// canonicalCrash rewrites a crash spec into canonical text: events
// trimmed and joined with single commas. Unparseable specs are returned
// verbatim (validation reports them; canonicalization must not mask the
// error).
func canonicalCrash(spec string) string {
	events, err := ParseCrash(spec)
	if err != nil || len(events) == 0 {
		return strings.TrimSpace(spec)
	}
	parts := make([]string, len(events))
	for i, ev := range events {
		parts[i] = fmt.Sprintf("%d@%d", ev.Node, ev.Barrier)
	}
	return strings.Join(parts, ",")
}

// ParseCrash parses parade-run's node@barrier[,node@barrier...] crash
// schedule syntax. Every event restarts: the full runtime cannot run on
// with a removed member (see core.Validate). An empty spec yields no
// events.
func ParseCrash(spec string) ([]hlrc.CrashEvent, error) {
	var events []hlrc.CrashEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nodeStr, barStr, ok := strings.Cut(part, "@")
		node, err1 := strconv.Atoi(nodeStr)
		barrier, err2 := strconv.Atoi(barStr)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad crash event %q (want node@barrier, e.g. 1@2)", part)
		}
		events = append(events, hlrc.CrashEvent{Node: node, Barrier: barrier, Restart: true})
	}
	return events, nil
}

// Validate checks the normalized spec and returns nil or a *SpecError
// with one entry per invalid field.
func (s Spec) Validate() error {
	s = s.Normalize()
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	app, appErr := MatrixAppByName(s.App)
	if s.App == "" {
		add("app", "required (valid: %s)", strings.Join(MatrixAppNames(), ", "))
	} else if appErr != nil {
		add("app", "unknown app %q (valid: %s)", s.App, strings.Join(MatrixAppNames(), ", "))
	}
	switch s.Mode {
	case "":
		add("mode", "required (valid: %s)", strings.Join(MatrixModes(), ", "))
	case "hybrid", "sdsm":
	default:
		add("mode", "unknown mode %q (valid: %s)", s.Mode, strings.Join(MatrixModes(), ", "))
	}
	if _, err := netsim.FabricByName(s.Fabric); err != nil {
		add("fabric", "unknown fabric %q (valid: via, tcp)", s.Fabric)
	}
	if s.Nodes < 1 {
		add("nodes", "must be >= 1, got %d", s.Nodes)
	}
	if s.ThreadsPerNode < 1 {
		add("threads_per_node", "must be >= 1, got %d", s.ThreadsPerNode)
	}
	if s.Lanes < 0 {
		add("lanes", "must be >= 0 (0 disables event lanes), got %d", s.Lanes)
	}
	if s.Seed < 0 {
		add("seed", "must be positive, got %d", s.Seed)
	}
	if s.FaultProfile != "" {
		if _, err := netsim.ProfileByName(s.FaultProfile, s.Seed); err != nil {
			add("fault_profile", "unknown fault profile %q (valid: %s)",
				s.FaultProfile, strings.Join(profileNames(), ", "))
		}
	}
	if !hlrc.ValidPolicy(s.Policy) {
		add("policy", "unknown policy %q (valid: %s, or empty for legacy)",
			s.Policy, strings.Join(hlrc.PolicyNames()[1:], ", "))
	}
	if s.DeadlineMS < 0 {
		add("deadline_ms", "must be >= 0 (0 disables the job deadline), got %d", s.DeadlineMS)
	}
	if app.Hetero != "" && s.Hetero != app.Hetero {
		add("hetero", "app %s runs only on the %q machine, got %q", s.App, app.Hetero, s.Hetero)
	} else if _, err := netsim.HeteroByName(s.Hetero, 1); err != nil {
		// One node suffices to check the name; the real profile is built
		// per node count only when the run is lowered.
		add("hetero", "unknown hetero profile %q (valid: uniform, fasthalf, slow1, or empty)", s.Hetero)
	}
	if events, err := ParseCrash(s.Crash); err != nil {
		add("crash", "%v", err)
	} else if len(events) > 0 && s.Nodes >= 1 {
		plan := &hlrc.CrashPlan{Events: events}
		if err := plan.Validate(s.Nodes); err != nil {
			add("crash", "%v", err)
		}
	}
	if fields == nil {
		return nil
	}
	return &SpecError{Index: -1, Fields: fields}
}

// profileNames lists the built-in fault profiles in canonical order.
func profileNames() []string {
	profs := netsim.Profiles(1)
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return names
}

// Canonical returns the canonical identity string of the spec: the
// normalized fields in fixed order, with the lane count collapsed to its
// regime (legacy vs event lanes — every positive lane count executes the
// identical event schedule, DESIGN.md §6h, so jobs differing only in
// worker count are the same simulation). Two specs are the same job if
// and only if their canonical strings are equal; the FNV fingerprint
// indexes this string, and the fleet cache compares the full string on
// every hit so a 64-bit hash collision can never alias two jobs.
func (s Spec) Canonical() string {
	s = s.Normalize()
	laneRegime := 0
	if s.Lanes > 0 {
		laneRegime = 1
	}
	c := fmt.Sprintf(
		"parade-fleet/v1 app=%s mode=%s fabric=%s nodes=%d threads=%d lanes=%d seed=%d lockcache=%t faults=%s crash=%s policy=%s",
		s.App, s.Mode, s.Fabric, s.Nodes, s.ThreadsPerNode, laneRegime,
		s.Seed, s.LockCaching, s.FaultProfile, s.Crash, s.Policy)
	if s.Hetero != "" {
		// Appended only when set, so pre-hetero fingerprints (and cached
		// results keyed by them) stay valid for the uniform cluster.
		c += " hetero=" + s.Hetero
	}
	return c
}

// Fingerprint returns the canonical FNV-1a config fingerprint: the
// 64-bit hash of Canonical(). It is the dedupe key of the fleet cache.
func (s Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Canonical()))
	return h.Sum64()
}

// FingerprintHex is Fingerprint formatted as fixed-width hex (the form
// results and logs carry).
func (s Spec) FingerprintHex() string {
	return fmt.Sprintf("%016x", s.Fingerprint())
}

// BuildConfig lowers the validated spec into the cluster configuration
// its run executes. It assumes Validate passed.
func (s Spec) BuildConfig() (core.Config, error) {
	s = s.Normalize()
	cfg, err := MatrixModeConfig(s.Mode, s.Nodes, s.ThreadsPerNode)
	if err != nil {
		return core.Config{}, err
	}
	fabric, err := netsim.FabricByName(s.Fabric)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Fabric = fabric
	cfg.Lanes = s.Lanes
	if s.Policy != "" {
		// Re-derive the directive threshold under the requested policy:
		// MatrixModeConfig froze it at the legacy default, and the
		// adaptive policy computes its own from the fabric and cost model.
		cfg.Policy = s.Policy
		cfg.SmallThreshold = 0
		cfg = cfg.WithDefaults()
	}
	if s.LockCaching {
		cfg.LockCaching = true
	}
	if s.FaultProfile != "" {
		prof, err := netsim.ProfileByName(s.FaultProfile, s.Seed)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Faults = &prof
	}
	events, err := ParseCrash(s.Crash)
	if err != nil {
		return core.Config{}, err
	}
	if len(events) > 0 {
		cfg.Crash = &hlrc.CrashPlan{Events: events}
	}
	hetero, err := netsim.HeteroByName(s.Hetero, s.Nodes)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Hetero = hetero
	return cfg, nil
}
