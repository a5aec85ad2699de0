package harness

import (
	"strings"
	"testing"
)

// TestCrashMatrix is the acceptance gate for crash-stop recovery: every
// app, both modes, every applicable crash schedule — recovered runs
// bit-identical to their fault-free baselines, recovery machinery
// demonstrably exercised, and the empty crash plan provably inert.
func TestCrashMatrix(t *testing.T) {
	rep := runAxes(t, crashPreset)
	crashed := 0
	for _, c := range rep.Cells {
		if c.Spec.Crash != "" && c.Counters.Crashes > 0 {
			crashed++
		}
	}
	if crashed < 10 {
		t.Fatalf("only %d crash cells ran:\n%s", crashed, rep.Render())
	}
	// ep runs a single barrier in hybrid mode, so its later schedules are
	// skipped and reported, not silently dropped.
	if len(rep.Skipped) == 0 {
		t.Fatalf("no schedule skipped:\n%s", rep.Render())
	}
}

// TestCrashMatrixReproducible: the deterministic substrate makes the
// whole sweep — crashes, recoveries, checkpoint counts, virtual times —
// replay identically.
func TestCrashMatrixReproducible(t *testing.T) {
	axes := crashPreset + " app=md"
	a, b := runAxes(t, axes), runAxes(t, axes)
	if a.Render() != b.Render() {
		t.Fatalf("crash sweep not reproducible:\n--- first\n%s--- second\n%s", a.Render(), b.Render())
	}
}

// TestCrashLockmixExercisesLockCaching: the lockmix rows must run the
// cached lock protocol (the matrix's reason for carrying the kernel).
func TestCrashLockmixExercisesLockCaching(t *testing.T) {
	rep := runAxes(t, crashPreset+" app=lockmix")
	for _, c := range rep.Cells {
		if !c.Spec.LockCaching {
			t.Fatalf("lockmix %s ran without lock caching", cellName(c.Spec))
		}
		if c.Spec.Crash != "" && c.Counters.CkptMsgs == 0 {
			t.Fatalf("lockmix %s shipped no checkpoints (token replication dead?)", cellName(c.Spec))
		}
	}
}

// TestCrashUnknownAppRejected: a typo in the app axis is an error
// listing the valid set, not a silently smaller matrix.
func TestCrashUnknownAppRejected(t *testing.T) {
	err := runAxesErr(t, crashPreset+" app=md,nosuch")
	if !strings.Contains(err.Error(), `unknown app "nosuch"`) || !strings.Contains(err.Error(), "lockmix") {
		t.Fatalf("err = %v, want unknown-app error listing the valid set", err)
	}
}

// TestCrashNeedsTwoNodes: a single node has no buddy to checkpoint to.
func TestCrashNeedsTwoNodes(t *testing.T) {
	if err := runAxesErr(t, crashPreset+" nodes=1"); !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Fatalf("err = %v, want the two-node requirement", err)
	}
}
