package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parade/internal/core"
	"parade/internal/hlrc"
)

// TestPolicySweepInvariants runs the policy preset on one VIA cell known
// to be an adaptive win and checks everything the sweep promises: every
// policy runs at every lane count, the identity checks pass, the
// classifier actually reclassified pages, the adaptive threshold is
// derived, and the cell is reported as a win.
func TestPolicySweepInvariants(t *testing.T) {
	rep := runAxes(t, "app=helmholtz mode=sdsm policy=all lanes=0,1,4")
	if want := len(hlrc.PolicyNames()) * 3; len(rep.Cells) != want {
		t.Fatalf("sweep ran %d cells, want %d", len(rep.Cells), want)
	}
	var adp *Cell
	for i := range rep.Cells {
		if rep.Cells[i].Spec.Policy == hlrc.PolicyAdaptive {
			adp = &rep.Cells[i]
		}
	}
	if adp == nil {
		t.Fatal("no adaptive cell in the sweep")
	}
	if adp.Counters.PolicyReclass == 0 {
		t.Fatal("adaptive run never reclassified a page")
	}
	if cfg, err := adp.Spec.BuildConfig(); err != nil || cfg.SmallThreshold == core.DefaultSmallThreshold {
		t.Fatalf("adaptive cell kept the paper's fixed threshold (err %v); AutoThreshold never fired", err)
	}
	if len(rep.Wins) == 0 {
		t.Fatalf("helmholtz/sdsm/via should be an adaptive win cell:\n%s", rep.Render())
	}
}

// TestFixedInvalidateMatchesLegacy pins the ground rule of the one
// invalidate protocol: the "invalidate" spelling and the legacy empty
// policy are byte- and time-identical, not merely result-identical.
// (The matrix checker asserts this too; this test keeps the property
// named and debuggable on its own.)
func TestFixedInvalidateMatchesLegacy(t *testing.T) {
	rep := runAxes(t, "app=md fabric=all policy=legacy,invalidate")
	byPolicy := map[string][]Cell{}
	for _, c := range rep.Cells {
		byPolicy[c.Spec.Policy] = append(byPolicy[c.Spec.Policy], c)
	}
	leg, inv := byPolicy[hlrc.PolicyLegacy], byPolicy[hlrc.PolicyInvalidate]
	if len(leg) == 0 || len(leg) != len(inv) {
		t.Fatalf("got %d legacy and %d invalidate cells", len(leg), len(inv))
	}
	for i := range leg {
		if leg[i].Time != inv[i].Time || leg[i].MemHash != inv[i].MemHash || leg[i].Counters.Bytes != inv[i].Counters.Bytes {
			t.Fatalf("cell %s: invalidate diverged from legacy", cellName(leg[i].Spec))
		}
	}
}

// TestPolicySweepRejectsBadInput: every axis value is validated before
// any cell runs.
func TestPolicySweepRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		axes string
		frag string
	}{
		{"unknown app", "app=nope", "unknown app"},
		{"unknown mode", "mode=nope", "unknown mode"},
		{"unknown policy", "policy=nope", "unknown policy"},
		{"unknown fabric", "fabric=nope", "fabric"},
		// Lane counts must be >= 0; 0 is the legacy kernel.
		{"non-positive verify lanes", "policy=adaptive lanes=-1", "lanes: must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := runAxesErr(t, tc.axes); !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

// TestPolicyReportJSONL: the stream is one header, one line per cell,
// and a summary, each valid JSON with the documented schema tag.
func TestPolicyReportJSONL(t *testing.T) {
	rep := runAxes(t, "app=md mode=hybrid policy=legacy,adaptive")
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if want := 1 + len(rep.Cells) + 1; len(lines) != want {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), want)
	}
	if got := lines[0]["schema"]; got != "parade-matrix/v1" {
		t.Fatalf("header schema = %v", got)
	}
	if got := lines[0]["matrix"]; got != rep.Matrix.String() {
		t.Fatalf("header matrix = %v, want %q", got, rep.Matrix.String())
	}
	if ok, is := lines[len(lines)-1]["ok"].(bool); !is || ok != rep.OK() {
		t.Fatalf("summary ok = %v, want %v", lines[len(lines)-1]["ok"], rep.OK())
	}
}

// adaptiveApps is the app axis the adaptive-policy invariants hold for:
// every kernel whose shared-memory access pattern is a pure function of
// program order. The dependence-scheduled kernel (taskdep) is excluded
// by construction, not as a gap: a task's faults and read observations
// are attributed to whichever node executed it, which depends on the
// steal schedule, so the classifier's inputs — and with them the
// elected protocol per page — legitimately differ between a faulted and
// a fault-free run. Its results stay bit-identical (the plain chaos and
// crash presets assert that with taskdep included); only the adaptive
// engine's page-state choices may differ.
func adaptiveApps() string {
	var out []string
	for _, n := range MatrixAppNames() {
		if n != "taskdep" {
			out = append(out, n)
		}
	}
	return "app=" + strings.Join(out, ",")
}

// TestAdaptivePolicyChaosMatrix: the fault-injection matrix holds with
// the adaptive engine active — protocol elections are a pure function
// of program order, so faulted runs stay bit-identical to their
// fault-free baselines.
func TestAdaptivePolicyChaosMatrix(t *testing.T) {
	runAxes(t, chaosPreset+" policy=adaptive "+adaptiveApps())
}

// TestAdaptivePolicyCrashMatrix: crash/restart recovery under the
// adaptive engine — the classifier folds into the checkpointed
// fingerprint, so recovered runs must still match their baselines.
func TestAdaptivePolicyCrashMatrix(t *testing.T) {
	runAxes(t, crashPreset+" policy=adaptive "+adaptiveApps())
}

// TestChaosCrashRejectUnknownPolicy: both presets validate the policy
// name up front.
func TestChaosCrashRejectUnknownPolicy(t *testing.T) {
	for _, preset := range []string{chaosPreset, crashPreset} {
		if err := runAxesErr(t, preset+" policy=nope"); !strings.Contains(err.Error(), "unknown policy") {
			t.Fatalf("%s: err = %v, want unknown-policy error", preset, err)
		}
	}
}
