package harness

import (
	"strings"
	"testing"

	"parade/internal/netsim"
)

// The fault and crash acceptance presets, in the axis syntax
// parade-bench -matrix and CI run. Tests narrow them by appending axes.
const (
	chaosPreset = "fault=all"
	crashPreset = "crash=all"
)

// runAxes parses and runs a matrix, failing the test on any error or
// violated invariant.
func runAxes(t *testing.T, axes string) Report {
	t.Helper()
	m, err := ParseMatrix(axes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("matrix %q failed:\n%s", axes, rep.Render())
	}
	return rep
}

// runAxesErr parses and runs a matrix that must be rejected before any
// cell runs, returning the error.
func runAxesErr(t *testing.T, axes string) error {
	t.Helper()
	m, err := ParseMatrix(axes)
	if err != nil {
		return err
	}
	rep, err := m.Run()
	if err == nil {
		t.Fatalf("matrix %q accepted (%d cells ran)", axes, len(rep.Cells))
	}
	return err
}

// TestChaosMatrix is the fault-injection acceptance sweep: every app
// kernel in both directive modes under every built-in fault profile
// must produce results bit-identical to the fault-free baselines,
// converge to the same final DSM state, and exercise at least one
// retransmit per profile. (CI runs the same sweep via
// `parade-bench -matrix fault=all`.)
func TestChaosMatrix(t *testing.T) {
	rep := runAxes(t, chaosPreset)
	wantRuns := len(matrixApps) * len(MatrixModes()) * (1 + len(netsim.Profiles(1)))
	if len(rep.Cells) != wantRuns {
		t.Fatalf("matrix ran %d cells, want %d", len(rep.Cells), wantRuns)
	}
}

// TestChaosMatrixReproducible: the same seeds replay the identical
// sweep, cell for cell (virtual times, counters, fingerprints).
func TestChaosMatrixReproducible(t *testing.T) {
	axes := chaosPreset + " app=helmholtz nodes=2 seed=9"
	a, b := runAxes(t, axes), runAxes(t, axes)
	if a.Render() != b.Render() {
		t.Fatalf("chaos sweep not reproducible:\n--- first\n%s--- second\n%s", a.Render(), b.Render())
	}
}

// TestChaosUnknownProfileRejected: any unknown profile name is an error
// naming the valid set — even alongside valid names, so a typo can
// never silently shrink the sweep.
func TestChaosUnknownProfileRejected(t *testing.T) {
	for _, axes := range []string{"fault=nope", "fault=drop,nope"} {
		err := runAxesErr(t, axes)
		if !strings.Contains(err.Error(), `unknown fault profile "nope"`) || !strings.Contains(err.Error(), "drop") {
			t.Fatalf("%s: err = %v, want unknown-profile error listing the valid set", axes, err)
		}
	}
}

// TestChaosUnknownAppRejected: same strictness for the app axis.
func TestChaosUnknownAppRejected(t *testing.T) {
	err := runAxesErr(t, chaosPreset+" app=helmholtz,nosuch")
	if !strings.Contains(err.Error(), `unknown app "nosuch"`) || !strings.Contains(err.Error(), "lockmix") {
		t.Fatalf("err = %v, want unknown-app error listing the valid set", err)
	}
}

// TestChaosFilters: app and profile subsets select the right cells.
func TestChaosFilters(t *testing.T) {
	rep := runAxes(t, "app=ep fault=chaos nodes=2")
	// One app, two modes, baseline + one profile each.
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4:\n%s", len(rep.Cells), rep.Render())
	}
	for _, c := range rep.Cells {
		if c.Spec.App != "ep" {
			t.Fatalf("unexpected app %q in filtered sweep", c.Spec.App)
		}
	}
}
