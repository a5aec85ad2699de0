package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/kdsm"
	"parade/internal/microbench"
	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
)

// workload is one opened workload: op runs one verified op (tr is nil in
// untraced phases) and reports whether every output matched and the op's
// simulated time.
type workload interface {
	op(tr *tracer) (ok bool, virtualNs int64)
	walPath() string // fleet-matrix's pre-filled WAL, "" elsewhere
	close()
}

type workloadSpec struct {
	name string
	// open prepares the workload's inputs from seed. child marks a cold
	// set-up probe (fleet-matrix then restarts over the existing WAL in
	// dir instead of pre-filling one).
	open func(seed int64, dir string, child bool) (workload, error)
}

// The simulated workloads run their program twice per op. The host adds
// pauses of about 20 ms to a few runs in a hundred whatever its speed;
// with ops of one ~70 ms run those pauses alone made the tail, which then
// moved 15-27% between sets of runs. Doubled ops average them in, and a
// run still holds well over 100 ops.
var workloads = []workloadSpec{
	{"cg-read", func(seed int64, _ string, _ bool) (workload, error) {
		return newSim(repeat(cgSteps(variant(seed), simOpts{}), 2))
	}},
	{"stencil-write", func(seed int64, _ string, _ bool) (workload, error) {
		return newSim(repeat(stencilSteps(variant(seed), simOpts{}), 2))
	}},
	{"sync-tasks", func(seed int64, _ string, _ bool) (workload, error) {
		return newSim(repeat(syncSteps(variant(seed), simOpts{}), 2))
	}},
	{"fleet-matrix", func(seed int64, dir string, child bool) (workload, error) {
		return openFleet(seed, dir, child, fleetOpts{})
	}},
}

// repeat returns steps n times over, as one op.
func repeat(steps []step, n int) []step {
	var out []step
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

// variants is how many input variants a seed selects among. Results do
// not depend on the variant: -update-goldens checks that every variant
// of a run has the same golden.
const variants = 8

func variant(seed int64) int { return int(((seed % variants) + variants) % variants) }

// simOpts are the known-effect probe's overrides of a workload's inputs.
type simOpts struct {
	fabric string // "" = the workload's VIA fabric
	policy string // hlrc policy
	cgN    int    // CG matrix order override
}

// step is one simulated program run inside an op.
type step struct {
	key string // goldens.json key
	cfg core.Config
	// run executes the program and applies the app's own checks; bits is
	// the exact-bits fingerprint of its results.
	run func(cfg core.Config) (bits string, rep core.Report, err error)
}

// cgSteps is cg-read: NPB CG in ParADE hybrid mode on 4 nodes at a class
// between T and S (order 700, two outer iterations). The seed varies only
// the modelled cost of a vector element, by up to 7%, so virtual time
// differs per seed while the host work and the results stay the same.
func cgSteps(v int, o simOpts) []step {
	class := apps.CGClassT
	class.Name, class.N, class.NIter = "bench", 700, 2
	class.PerVec += sim.Duration(v) * sim.Nanosecond
	if o.cgN > 0 {
		class.N = o.cgN
	}
	cfg, _ := harness.MatrixModeConfig("hybrid", 4, 1) // "hybrid" always resolves
	return []step{{
		key: fmt.Sprintf("cg-read/hybrid/n%d", class.N),
		cfg: o.apply(cfg),
		run: func(cfg core.Config) (string, core.Report, error) {
			r, err := apps.RunCG(cfg, class)
			return bitsOf(r.Zeta, r.RNorm, float64(r.NZ)), r.Report, err
		},
	}}
}

// stencilSteps is stencil-write: Helmholtz SOR in the KDSM baseline on 8
// nodes, a 48x48 grid and a fixed 60 iterations. The seed varies only the
// modelled cost of a stencil point, by up to 7%.
func stencilSteps(v int, o simOpts) []step {
	prm := apps.HelmholtzTest()
	prm.MaxIter, prm.Tol = 60, 1e-300
	prm.PerPoint += sim.Duration(v) * sim.Nanosecond
	cfg := o.apply(kdsm.Config(8, 1, 2))
	return []step{{
		key: fmt.Sprintf("stencil-write/sdsm/%dx%d", prm.N, prm.M),
		cfg: cfg,
		run: func(cfg core.Config) (string, core.Report, error) {
			r, err := apps.RunHelmholtz(cfg, prm)
			if err == nil && r.Iterations != prm.MaxIter {
				err = fmt.Errorf("ran %d iterations, want %d", r.Iterations, prm.MaxIter)
			}
			return bitsOf(r.Error, float64(r.Iterations)), r.Report, err
		},
	}}
}

// microReps is the directive count per microbenchmark run: half the
// figures' harness.MicroReps, so an op stays near 100 ms.
const microReps = harness.MicroReps / 2

// syncSteps is sync-tasks: the Fig. 6/7 critical and single
// microbenchmarks on 8 nodes in both modes, plus lockmix, quad and
// taskdep at their Default sizes. The seed is the cluster seed, which
// drives the steal-victim rotation (results must not depend on it).
func syncSteps(v int, o simOpts) []step {
	seed := int64(1 + v)
	hybrid := o.apply(core.Config{Nodes: 8, ThreadsPerNode: 1, Mode: core.Hybrid, HomeMigration: true, Seed: seed}.WithDefaults())
	sdsm := kdsm.Config(8, 1, 2)
	sdsm.Seed = seed
	sdsm = o.apply(sdsm)
	var steps []step
	for _, d := range []string{"critical", "single"} {
		bench, _ := microbench.ByName(d) // both names are registered
		for _, m := range []struct {
			mode string
			cfg  core.Config
		}{{"hybrid", hybrid}, {"sdsm", sdsm}} {
			steps = append(steps, step{
				key: fmt.Sprintf("sync-tasks/%s/%s", d, m.mode),
				cfg: m.cfg,
				run: func(cfg core.Config) (string, core.Report, error) {
					r, err := bench(cfg, microReps)
					return bitsOf(float64(r.Reps)), r.Report, err
				},
			})
		}
	}
	lock := sdsm
	lock.LockCaching = true
	steps = append(steps, step{key: "sync-tasks/lockmix/sdsm", cfg: lock,
		run: func(cfg core.Config) (string, core.Report, error) {
			r, err := apps.RunLockmix(cfg, apps.LockmixDefault())
			if err == nil && r.Sum != r.Expected {
				err = fmt.Errorf("lockmix sum %v, want %v", r.Sum, r.Expected)
			}
			return bitsOf(r.Sum, r.Expected), r.Report, err
		}})
	quadPrm := apps.QuadDefault()
	quadRef := apps.QuadReference(quadPrm)
	steps = append(steps, step{key: "sync-tasks/quad/hybrid", cfg: hybrid,
		run: func(cfg core.Config) (string, core.Report, error) {
			r, err := apps.RunQuad(cfg, quadPrm)
			if err == nil && math.Abs(r.Integral-quadRef) > 100*quadPrm.Tol {
				err = fmt.Errorf("quad integral %v, reference %v", r.Integral, quadRef)
			}
			return bitsOf(r.Integral, r.TableSum), r.Report, err
		}})
	dep := hybrid
	dep.Hetero, _ = netsim.HeteroByName("fasthalf", dep.Nodes) // a built-in profile
	steps = append(steps, step{key: "sync-tasks/taskdep/hybrid", cfg: dep,
		run: func(cfg core.Config) (string, core.Report, error) {
			r, err := apps.RunTaskdep(cfg, apps.TaskdepDefault())
			return bitsOf(r.PipeSum, r.OffloadSum, r.CheckSum), r.Report, err
		}})
	return steps
}

func (o simOpts) apply(cfg core.Config) core.Config {
	if o.fabric != "" {
		cfg.Fabric, _ = netsim.FabricByName(o.fabric) // probe names are fixed presets
	}
	cfg.Policy = o.policy
	return cfg
}

// simWorkload runs its steps in order as one op.
type simWorkload struct {
	steps []step
	gold  map[string]golden // nil only for the probe's changed inputs
}

func newSim(steps []step) (*simWorkload, error) {
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		if _, ok := gold[s.key]; !ok {
			return nil, fmt.Errorf("no golden for %s", s.key)
		}
	}
	return &simWorkload{steps: steps, gold: gold}, nil
}

func (w *simWorkload) op(tr *tracer) (bool, int64) {
	ok := true
	var vns int64
	for _, s := range w.steps {
		t0 := time.Now()
		cfg := s.cfg
		if tr != nil {
			cfg.Obs = obs.New(cfg.Nodes)
		}
		t1 := time.Now()
		bits, rep, err := s.run(cfg)
		t2 := time.Now()
		vns += int64(rep.Time)
		if w.gold != nil {
			err = w.gold[s.key].check(bits, rep.MemHash, err)
		}
		if err != nil {
			logFailure(s.key, err)
			ok = false
		}
		if tr != nil {
			tr.span("bench.gen_ms", t1.Sub(t0))
			tr.span("apps.run_ms", t2.Sub(t1))
			tr.span("bench.verify_ms", time.Since(t2))
			tr.addCounters(rep.Counters)
			tr.addObs(rep.Obs)
		}
	}
	if tr != nil {
		tr.ops++
	}
	return ok, vns
}

func (w *simWorkload) walPath() string { return "" }
func (w *simWorkload) close()          {}
