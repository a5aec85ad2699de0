package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"parade/internal/fleet"
	"parade/internal/harness"
)

// golden is the committed expectation for one program run: the exact
// result bits and the fault-free final DSM state (Report.MemHash).
type golden struct {
	Bits    string `json:"bits"`
	MemHash string `json:"mem_hash"`
}

// check compares one run's outputs with g. runErr carries the run's own
// error and the app's self-checks.
func (g golden) check(bits string, memHash uint64, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if bits != g.Bits {
		return fmt.Errorf("result bits %s, golden %s", bits, g.Bits)
	}
	if mh := fmt.Sprintf("%016x", memHash); mh != g.MemHash {
		return fmt.Errorf("mem_hash %s, golden %s", mh, g.MemHash)
	}
	return nil
}

//go:embed goldens.json
var goldensJSON []byte

var (
	goldOnce sync.Once
	goldMap  map[string]golden
	goldErr  error
)

// loadGoldens returns a private copy of the committed goldens, so a
// caller (the self-test) may corrupt its copy without touching others.
func loadGoldens() (map[string]golden, error) {
	goldOnce.Do(func() { goldErr = json.Unmarshal(goldensJSON, &goldMap) })
	if goldErr != nil {
		return nil, fmt.Errorf("goldens.json: %w", goldErr)
	}
	out := make(map[string]golden, len(goldMap))
	for k, v := range goldMap {
		out[k] = v
	}
	return out, nil
}

// bitsOf fingerprints float64 results exactly, as the acceptance
// matrices do: any single-bit difference changes the string.
func bitsOf(vs ...float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}

func logFailure(what string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: verification failed: %s: %v\n", what, err)
}

// writeGoldens recomputes every golden from the current program and
// writes them to path. Run it only when the program's results change on
// purpose, and say so where the change is recorded.
func writeGoldens(path string) error {
	out := map[string]golden{}
	var all [][]step
	for v := 0; v < variants; v++ {
		all = append(all, cgSteps(v, simOpts{}), stencilSteps(v, simOpts{}), syncSteps(v, simOpts{}))
	}
	for _, steps := range all {
		for _, s := range steps {
			bits, rep, err := s.run(s.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", s.key, err)
			}
			g := golden{Bits: bits, MemHash: fmt.Sprintf("%016x", rep.MemHash)}
			if prev, ok := out[s.key]; ok && prev != g {
				return fmt.Errorf("%s: outputs depend on the seed (%v vs %v)", s.key, prev, g)
			}
			out[s.key] = g
		}
	}
	// Fleet cells: the fault-free run of each (app, mode) through the same
	// harness table and spec lowering the service uses.
	for _, app := range fleetApps {
		for _, mode := range harness.MatrixModes() {
			spec := fleet.JobSpec{App: app, Mode: mode}.Normalize()
			cfg, err := spec.BuildConfig()
			if err != nil {
				return err
			}
			a, err := harness.MatrixAppByName(app)
			if err != nil {
				return err
			}
			bits, _, rep, err := a.Run(cfg)
			if err != nil {
				return fmt.Errorf("fleet %s/%s: %w", app, mode, err)
			}
			out[fleetKey(app, mode)] = golden{Bits: bits, MemHash: fmt.Sprintf("%016x", rep.MemHash)}
		}
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)      // strings always marshal
		vb, _ := json.Marshal(out[k]) // plain struct
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s: %s%s\n", kb, vb, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func fleetKey(app, mode string) string { return "fleet-matrix/" + app + "/" + mode }
