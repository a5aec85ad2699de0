package harness

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"parade/internal/hlrc"
	"parade/internal/stats"
)

func TestMatrixExpand(t *testing.T) {
	specs := Matrix{
		Apps: []string{"ep", "cg"}, Modes: []string{"hybrid"},
		Faults: []string{"drop"}, Crashes: []string{"1@1"},
	}.Expand()
	// Per app: the implied baseline, ("", "1@1"), ("drop", "") — the
	// drop+crash combination is skipped.
	if len(specs) != 6 {
		t.Fatalf("Expand() = %d specs, want 6", len(specs))
	}
	for _, s := range specs {
		if s.FaultProfile != "" && s.Crash != "" {
			t.Errorf("Expand() emitted a fault+crash cell: %s", s.Canonical())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Expand() emitted invalid spec %s: %v", s.Canonical(), err)
		}
	}
	if !sort.SliceIsSorted(specs, func(i, j int) bool {
		return specs[i].Canonical() < specs[j].Canonical()
	}) {
		t.Errorf("Expand() output not in canonical order")
	}
	// "all" crash schedules follow the node count.
	specs = Matrix{Apps: []string{"ep"}, Modes: []string{"sdsm"}, Crashes: []string{"all"}, Nodes: []int{2, 8}}.Expand()
	var crashes []string
	for _, s := range specs {
		crashes = append(crashes, s.Crash)
	}
	sort.Strings(crashes)
	if want := []string{"", "", "1@1", "1@1", "1@1,1@3", "1@1,1@3", "1@2", "7@2"}; !reflect.DeepEqual(crashes, want) {
		t.Errorf("crash=all over nodes 2,8 expanded to %q, want %q", crashes, want)
	}
}

// TestPresetsCoverV1Cells: testdata/v1-presets holds the sorted
// canonical cells the separate chaos, crash and policy runners and the
// fleet replay ran before they were folded into Matrix. Each preset
// must still enumerate every one of them. taskdep cells now name their
// pinned machine, so their old strings gain " hetero=fasthalf".
func TestPresetsCoverV1Cells(t *testing.T) {
	for name, axes := range map[string]string{
		"chaos":  "fault=all",
		"crash":  "crash=all",
		"policy": "fabric=all policy=all lanes=0,1,4",
		"replay": "fault=all crash=1@1;1@1,1@3",
	} {
		m, err := ParseMatrix(axes)
		if err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		for _, s := range m.Expand() {
			have[s.Canonical()] = true
		}
		old, err := os.ReadFile(filepath.Join("testdata", "v1-presets", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, canon := range strings.Split(strings.TrimSpace(string(old)), "\n") {
			if strings.Contains(canon, " app=taskdep ") {
				canon += " hetero=fasthalf"
			}
			if !have[canon] {
				t.Errorf("preset %s (%q) lost cell %q", name, axes, canon)
			}
		}
	}
}

func TestParseMatrixTable(t *testing.T) {
	cases := []struct {
		axes string
		want Matrix
		err  string // substring of the *AxisError, "" for valid input
	}{
		{axes: "", want: Matrix{}},
		{axes: "app=all mode=all", want: Matrix{}},
		{axes: "app=cg,md fault=all crash=1@1;1@1,1@3 policy=adaptive lanes=2", want: Matrix{
			Apps: []string{"cg", "md"}, Faults: profileNames(),
			Crashes: []string{"1@1", "1@1,1@3"}, Policies: []string{hlrc.PolicyAdaptive}, Lanes: []int{2},
		}},
		{axes: "  fabric=all\tpolicy=all  nodes=2,8 seed=9 crash=all ", want: Matrix{
			Fabrics: []string{"via", "tcp"}, Policies: hlrc.PolicyNames(), Nodes: []int{2, 8},
			Seeds: []int64{9}, Crashes: []string{"all"},
		}},
		{axes: "policy=legacy,invalidate", want: Matrix{Policies: []string{"", "invalidate"}}},
		// Crash schedules are stored canonically.
		{axes: "crash=01@1,,1@3", want: Matrix{Crashes: []string{"1@1,1@3"}}},
		// Names are checked by Validate, not the parser.
		{axes: "app=nosuch", want: Matrix{Apps: []string{"nosuch"}}},
		{axes: "app", err: "want key=value"},
		{axes: "app=", err: "want key=value"},
		{axes: "=cg", err: "unknown axis"},
		{axes: "apps=cg", err: `unknown axis "apps"`},
		{axes: "app=cg app=md", err: "given twice"},
		{axes: "app=cg,,md", err: "empty value"},
		{axes: "lanes=two", err: `bad integer "two"`},
		{axes: "seed=99999999999999999999", err: "bad integer"},
		// One crash-event parser: the message is parade-run's.
		{axes: "crash=1-2", err: `bad crash event "1-2" (want node@barrier, e.g. 1@2)`},
		{axes: "crash=1@1;,", err: "empty crash schedule"},
	}
	for _, tc := range cases {
		m, err := ParseMatrix(tc.axes)
		if tc.err != "" {
			var ae *AxisError
			if !errors.As(err, &ae) || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseMatrix(%q) = %v, want *AxisError mentioning %q", tc.axes, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(m, tc.want) {
			t.Errorf("ParseMatrix(%q) = %+v, %v; want %+v", tc.axes, m, err, tc.want)
		}
		if back, err := ParseMatrix(m.String()); err != nil || !reflect.DeepEqual(back, m) {
			t.Errorf("%q does not round-trip through %q: %+v, %v", tc.axes, m.String(), back, err)
		}
	}
}

// FuzzMatrixAxes: the axis string is untrusted CLI input. Any input
// either parses into a matrix whose String form parses back to it, or
// fails with a typed *AxisError; it never panics.
func FuzzMatrixAxes(f *testing.F) {
	for _, seed := range []string{
		"fault=all", "crash=all nodes=2", "fabric=all policy=all lanes=0,1,4",
		"app=helmholtz,ep fault=drop,chaos crash=1@1;1@1,1@3 seed=3",
		"crash=1-2", "lanes=x", "app=cg app=md", "=", "policy=legacy",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, axes string) {
		m, err := ParseMatrix(axes)
		if err != nil {
			var ae *AxisError
			if !errors.As(err, &ae) {
				t.Fatalf("ParseMatrix(%q) error %T is not an *AxisError", axes, err)
			}
			return
		}
		back, err := ParseMatrix(m.String())
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%q does not round-trip through %q: %+v, %v", axes, m.String(), back, err)
		}
	})
}

// TestCheckFlagsDivergence drives the invariant checker with synthetic
// cells: each mutation of an otherwise consistent matrix must produce
// exactly the failure naming it.
func TestCheckFlagsDivergence(t *testing.T) {
	cell := func(fault, crash, policy string, lanes int) Cell {
		c := Cell{
			Spec:   Spec{App: "md", Mode: "hybrid", FaultProfile: fault, Crash: crash, Policy: policy, Lanes: lanes}.Normalize(),
			Result: "bits", MemHash: 7, Time: 100,
			Counters: stats.Counters{Bytes: 50},
		}
		if fault != "" {
			c.Counters.Retransmits = 1
		}
		if crash != "" {
			c.Counters.Crashes, c.Counters.NodeRestarts, c.Counters.Recoveries, c.Counters.CkptMsgs = 1, 1, 1, 3
		}
		return c
	}
	consistent := func() []Cell {
		return []Cell{
			cell("", "", "", 0), cell("drop", "", "", 0), cell("", "1@1", "", 0),
			cell("", "", "invalidate", 0), cell("", "", "adaptive", 1), cell("", "", "adaptive", 4),
		}
	}
	cases := []struct {
		name   string
		mutate func(cs []Cell)
		want   string
	}{
		{"consistent", func([]Cell) {}, ""},
		{"fault changes result bits", func(cs []Cell) { cs[1].Result = "other" }, "result bits diverged"},
		{"fault changes DSM state", func(cs []Cell) { cs[1].MemHash = 8 }, "diverged from the fault-free run"},
		{"profile never retransmits", func(cs []Cell) { cs[1].Counters.Retransmits = 0 }, `profile "drop": no retransmit`},
		{"baseline retransmits", func(cs []Cell) { cs[0].Counters.Retransmits = 2 }, "on the ideal fabric"},
		{"crash changes DSM state", func(cs []Cell) { cs[2].MemHash = 8 }, "diverged from the crash-free run"},
		{"crash not injected", func(cs []Cell) { cs[2].Counters.Crashes = 0 }, "0 crashes, 1 restarts"},
		{"crash not recovered", func(cs []Cell) { cs[2].Counters.Recoveries = 0 }, "0 recoveries for 1 crash events"},
		{"crash without checkpoints", func(cs []Cell) { cs[2].Counters.CkptMsgs = 0 }, "no checkpoint traffic"},
		{"invalidate moves bytes", func(cs []Cell) { cs[3].Counters.Bytes = 51 }, "explicit invalidate diverged"},
		{"lanes change time", func(cs []Cell) { cs[5].Time = 101 }, "not bit-identical to 1 lanes"},
		{"run error", func(cs []Cell) { cs[4].Err = "boom" }, "run error: boom"},
	}
	for _, tc := range cases {
		cs := consistent()
		tc.mutate(cs)
		failures, _ := check(cs, map[axes]Cell{}, map[axes]Cell{})
		got := strings.Join(failures, "\n")
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) || len(failures) > 1 {
			t.Errorf("%s: failures %q, want exactly one mentioning %q", tc.name, failures, tc.want)
		}
	}
	// The inertness probe and the armed lane-mode baseline are checked
	// against their baseline too.
	cs := consistent()
	k := axesOf(cs[0].Spec)
	perturbed := cs[0]
	perturbed.Time++
	if failures, _ := check(cs, map[axes]Cell{k: perturbed}, map[axes]Cell{}); len(failures) != 1 ||
		!strings.Contains(failures[0], "empty crash plan perturbed") {
		t.Errorf("perturbed empty-plan run: failures %q", failures)
	}
	// Adaptive wins are reported once per canonical cell.
	cs = append(consistent(), cell("", "", "", 1))
	cs[4].Time = 90
	if _, wins := check(cs, map[axes]Cell{}, map[axes]Cell{}); len(wins) != 1 || !strings.Contains(wins[0], "virtual time") {
		t.Errorf("wins = %q, want one virtual-time win", wins)
	}
}
