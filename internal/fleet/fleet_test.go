package fleet

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// validSpec is the cheapest valid job: one cell of the matrix.
func validSpec() JobSpec {
	return JobSpec{App: "ep", Mode: "hybrid"}
}

func TestJobSpecValidationTable(t *testing.T) {
	cases := []struct {
		name   string
		spec   JobSpec
		fields []string // invalid field names, nil for a valid spec
		reason string   // substring expected in the first field's reason
	}{
		{name: "valid defaults", spec: JobSpec{App: "ep", Mode: "hybrid"}},
		{name: "valid sdsm with everything", spec: JobSpec{
			App: "lockmix", Mode: "sdsm", Fabric: "tcp", Nodes: 8,
			ThreadsPerNode: 2, Lanes: 4, Seed: 7, FaultProfile: "chaos",
		}},
		{name: "valid crash schedule", spec: JobSpec{App: "cg", Mode: "hybrid", Crash: "1@1,1@3"}},
		{name: "two distinct crash nodes", spec: JobSpec{App: "cg", Mode: "hybrid", Crash: "1@1,2@3"},
			fields: []string{"crash"}, reason: "one distinct node"},
		{name: "missing app", spec: JobSpec{Mode: "hybrid"},
			fields: []string{"app"}, reason: "required"},
		{name: "unknown app", spec: JobSpec{App: "linpack", Mode: "hybrid"},
			fields: []string{"app"}, reason: `unknown app "linpack"`},
		{name: "missing mode", spec: JobSpec{App: "ep"},
			fields: []string{"mode"}, reason: "required"},
		{name: "unknown mode", spec: JobSpec{App: "ep", Mode: "mpi"},
			fields: []string{"mode"}, reason: `unknown mode "mpi"`},
		{name: "unknown fabric", spec: JobSpec{App: "ep", Mode: "hybrid", Fabric: "infiniband"},
			fields: []string{"fabric"}, reason: "unknown fabric"},
		{name: "negative nodes", spec: JobSpec{App: "ep", Mode: "hybrid", Nodes: -2},
			fields: []string{"nodes"}, reason: ">= 1"},
		{name: "negative threads", spec: JobSpec{App: "ep", Mode: "hybrid", ThreadsPerNode: -1},
			fields: []string{"threads_per_node"}, reason: ">= 1"},
		{name: "negative lanes", spec: JobSpec{App: "ep", Mode: "hybrid", Lanes: -3},
			fields: []string{"lanes"}, reason: ">= 0"},
		{name: "negative seed", spec: JobSpec{App: "ep", Mode: "hybrid", Seed: -1},
			fields: []string{"seed"}, reason: "positive"},
		{name: "unknown profile", spec: JobSpec{App: "ep", Mode: "hybrid", FaultProfile: "meteor"},
			fields: []string{"fault_profile"}, reason: `unknown fault profile "meteor"`},
		{name: "valid hetero profile", spec: JobSpec{App: "ep", Mode: "hybrid", Hetero: "fasthalf"}},
		{name: "unknown hetero profile", spec: JobSpec{App: "ep", Mode: "hybrid", Hetero: "gpufarm"},
			fields: []string{"hetero"}, reason: `unknown hetero profile "gpufarm"`},
		{name: "crash syntax", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "1-at-2"},
			fields: []string{"crash"}, reason: "want node@barrier"},
		{name: "crash node out of range", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "9@1"},
			fields: []string{"crash"}},
		{name: "crash node zero", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "0@1"},
			fields: []string{"crash"}},
		// taskdep pins the fasthalf machine: the empty field takes it, an
		// explicit match is fine, and any other machine is a conflict
		// instead of a silently ignored request.
		{name: "taskdep pinned machine", spec: JobSpec{App: "taskdep", Mode: "hybrid"}},
		{name: "taskdep explicit pinned machine", spec: JobSpec{App: "taskdep", Mode: "hybrid", Hetero: "fasthalf"}},
		{name: "taskdep other machine", spec: JobSpec{App: "taskdep", Mode: "hybrid", Hetero: "slow1"},
			fields: []string{"hetero"}, reason: `runs only on the "fasthalf" machine`},
		{name: "taskdep uniform machine", spec: JobSpec{App: "taskdep", Mode: "sdsm", Hetero: "uniform"},
			fields: []string{"hetero"}, reason: `got "uniform"`},
		{name: "several fields at once",
			spec:   JobSpec{App: "nope", Mode: "nope", Fabric: "nope", Nodes: -1, FaultProfile: "nope"},
			fields: []string{"app", "fabric", "fault_profile", "mode", "nodes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.fields == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var se *JobSpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v (%T), want *JobSpecError", err, err)
			}
			var got []string
			for _, f := range se.Fields {
				got = append(got, f.Field)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.fields...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("invalid fields = %v, want %v (err: %v)", got, want, se)
			}
			if tc.reason != "" && !strings.Contains(se.Error(), tc.reason) {
				t.Fatalf("error %q does not mention %q", se.Error(), tc.reason)
			}
		})
	}
}

func TestJobSpecCanonicalization(t *testing.T) {
	base := validSpec()

	// The client handle never participates in job identity.
	withID := base
	withID.ID = "my-job"
	if withID.Fingerprint() != base.Fingerprint() {
		t.Errorf("ID changed the fingerprint")
	}

	// Explicit defaults fingerprint like omitted ones.
	explicit := JobSpec{App: "ep", Mode: "hybrid", Fabric: "via", Nodes: 4, ThreadsPerNode: 1, Seed: 1}
	if explicit.Fingerprint() != base.Fingerprint() {
		t.Errorf("explicit defaults fingerprint differently:\n%s\n%s", explicit.Canonical(), base.Canonical())
	}

	// All positive lane counts are the same simulation (bit-identical
	// event schedule); the legacy kernel is its own regime.
	l1, l8, l0 := base, base, base
	l1.Lanes, l8.Lanes, l0.Lanes = 1, 8, 0
	if l1.Fingerprint() != l8.Fingerprint() {
		t.Errorf("lanes=1 and lanes=8 should share a fingerprint")
	}
	if l1.Fingerprint() == l0.Fingerprint() {
		t.Errorf("lanes=0 and lanes=1 are distinct regimes, got equal fingerprints")
	}

	// lockmix always runs with lock caching, however the spec spells it.
	lm := JobSpec{App: "lockmix", Mode: "hybrid"}
	if !lm.Normalize().LockCaching {
		t.Errorf("lockmix must normalize to LockCaching=true")
	}
	lmExplicit := lm
	lmExplicit.LockCaching = true
	if lm.Fingerprint() != lmExplicit.Fingerprint() {
		t.Errorf("lockmix fingerprint depends on redundant lock_caching field")
	}

	// "uniform" is the explicit spelling of the default machine.
	hu := base
	hu.Hetero = "uniform"
	if hu.Fingerprint() != base.Fingerprint() {
		t.Errorf(`hetero "uniform" fingerprints differently from the default`)
	}

	// taskdep's pinned machine is part of its identity, however the spec
	// spells it.
	td, tdExplicit := JobSpec{App: "taskdep", Mode: "hybrid"}, JobSpec{App: "taskdep", Mode: "hybrid", Hetero: "fasthalf"}
	if !strings.HasSuffix(td.Canonical(), " hetero=fasthalf") || td.Fingerprint() != tdExplicit.Fingerprint() {
		t.Errorf("taskdep canonical %q does not name its pinned machine", td.Canonical())
	}

	// Crash schedules canonicalize whitespace.
	c1, c2 := base, base
	c1.Crash, c2.Crash = "1@1, 2@3", "1@1,2@3"
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Errorf("crash schedule whitespace changed the fingerprint")
	}

	// Distinct configurations must canonicalize distinctly.
	distinct := []JobSpec{
		base,
		{App: "cg", Mode: "hybrid"},
		{App: "ep", Mode: "sdsm"},
		{App: "ep", Mode: "hybrid", Fabric: "tcp"},
		{App: "ep", Mode: "hybrid", Nodes: 8},
		{App: "ep", Mode: "hybrid", ThreadsPerNode: 2},
		{App: "ep", Mode: "hybrid", Lanes: 2},
		{App: "ep", Mode: "hybrid", Seed: 2},
		{App: "ep", Mode: "hybrid", FaultProfile: "drop"},
		{App: "ep", Mode: "hybrid", Crash: "1@1"},
		{App: "ep", Mode: "hybrid", Hetero: "fasthalf"},
		{App: "ep", Mode: "hybrid", Hetero: "slow1"},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		canon := s.Canonical()
		if j, dup := seen[canon]; dup {
			t.Errorf("specs %d and %d share canonical %q", i, j, canon)
		}
		seen[canon] = i
	}
}

func TestCacheCollisionGuard(t *testing.T) {
	c := NewCache(4)
	res := JobResult{Status: StatusOK, ResultBits: "aa"}
	c.Put(42, "canonical-A", res)

	// Same fingerprint, different canonical config: must be a miss, never
	// the stored result.
	if _, ok := c.Get(42, "canonical-B"); ok {
		t.Fatalf("collision returned a foreign result")
	}
	st := c.Stats()
	if st.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", st.Collisions)
	}
	if got, ok := c.Get(42, "canonical-A"); !ok || got.ResultBits != "aa" {
		t.Errorf("true key lookup failed after collision: %+v ok=%v", got, ok)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "one", JobResult{ResultBits: "1"})
	c.Put(2, "two", JobResult{ResultBits: "2"})
	if _, ok := c.Get(1, "one"); !ok { // promote 1 to MRU
		t.Fatalf("entry 1 missing before eviction")
	}
	c.Put(3, "three", JobResult{ResultBits: "3"}) // evicts 2 (LRU)
	if _, ok := c.Get(2, "two"); ok {
		t.Errorf("LRU entry 2 survived eviction")
	}
	if _, ok := c.Get(1, "one"); !ok {
		t.Errorf("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(3, "three"); !ok {
		t.Errorf("newest entry 3 missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Errorf("stats = %+v, want 1 eviction and len 2", st)
	}

	// Re-putting an existing key updates in place, no eviction.
	c.Put(3, "three", JobResult{ResultBits: "3b"})
	if got, _ := c.Get(3, "three"); got.ResultBits != "3b" {
		t.Errorf("in-place update lost: %+v", got)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("in-place update evicted: %+v", st)
	}
}

func TestExecutorInvalidSpecNeverExecutes(t *testing.T) {
	exec := &Executor{}
	res, err := exec.Run(JobSpec{App: "nope", Mode: "hybrid"})
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if res.Status != StatusInvalid || len(res.InvalidFields) == 0 {
		t.Fatalf("Run() = %+v, want StatusInvalid with field detail", res)
	}
	if exec.Executions() != 0 {
		t.Fatalf("invalid spec executed (%d executions)", exec.Executions())
	}
}

func TestExecutorDeterminism(t *testing.T) {
	// Two independent executors must agree bit-for-bit on the same spec —
	// the property the dedupe cache's exactness argument rests on.
	spec := JobSpec{App: "ep", Mode: "hybrid", FaultProfile: "drop"}
	a, err := (&Executor{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Executor{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusOK || b.Status != StatusOK {
		t.Fatalf("statuses %s/%s, want ok/ok (%s %s)", a.Status, b.Status, a.Error, b.Error)
	}
	if d := diffResults(a, b); d != "" {
		t.Fatalf("independent runs differ: %s", d)
	}
	if a.StateFingerprint == "" || a.MemHash == "" || a.ResultBits == "" {
		t.Fatalf("missing fingerprints: %+v", a)
	}
}
