package fleet

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// stableCells are job specs with the v1 fingerprints they have always
// had. testdata/v1-results.wal holds their results, written by the
// service before the spec code moved into internal/harness.
var stableCells = []struct {
	spec JobSpec
	fp   string
}{
	{JobSpec{App: "ep", Mode: "hybrid"}, "9fa11b293fa10766"},
	{JobSpec{App: "helmholtz", Mode: "sdsm", FaultProfile: "drop"}, "33dd8c51246f89e8"},
	{JobSpec{App: "cg", Mode: "hybrid", Crash: "1@1"}, "9b8744f767f21d13"},
	{JobSpec{App: "md", Mode: "sdsm", Fabric: "tcp", Policy: "adaptive", Lanes: 2}, "62fa58b20a601f5f"},
	{JobSpec{App: "lockmix", Mode: "hybrid", Nodes: 2}, "a6a5b4dd215ce275"},
	{JobSpec{App: "quad", Mode: "sdsm", Hetero: "slow1", Seed: 3}, "cdf483a4c1afdc8d"},
	// taskdep's empty machine field now normalizes to the machine it
	// always ran on, so it shares the explicit "fasthalf" identity.
	{JobSpec{App: "taskdep", Mode: "hybrid"}, "03e53c63bb11328c"},
}

// TestFingerprintsStable: Canonical()/Fingerprint() are a persistent
// cache key, so they must not drift, and a result log written under
// them must keep serving every cell without re-execution.
func TestFingerprintsStable(t *testing.T) {
	specs := make([]JobSpec, len(stableCells))
	for i, c := range stableCells {
		if got := c.spec.FingerprintHex(); got != c.fp {
			t.Errorf("%s: fingerprint %s, want %s", c.spec.Canonical(), got, c.fp)
		}
		specs[i] = c.spec
	}
	wal, err := os.ReadFile(filepath.Join("testdata", "v1-results.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.wal")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	svc := mustService(t, ServerOptions{WALPath: path})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	results, err := postSpecs(ts.URL, specs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Status != StatusOK || !res.Cached {
			t.Errorf("%s: status %s cached=%v, want a recovered cache hit", specs[i].Canonical(), res.Status, res.Cached)
		}
	}
	if n := svc.Executor().Executions(); n != 0 {
		t.Fatalf("recovered cells re-executed %d times", n)
	}
}
