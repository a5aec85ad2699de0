package harness

import (
	"fmt"
	"math"
	"strings"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/kdsm"
	"parade/internal/sim"
)

// MatrixApp is one application kernel of the scenario matrix. Run
// executes the kernel at its matrix workload size and returns the
// result-bits fingerprint (hex of the exact float64 bits of every result
// field — any single-bit difference changes the string), the kernel
// time, and the run report. LockCaching marks the lock-protocol stress
// kernel, which runs with lazy-release tokens so the cached lock path
// gets coverage. Hetero, when set, pins the kernel's machine: Spec
// normalization fills it in and validation rejects any other profile,
// so a cell's fingerprint always names the machine it ran on.
type MatrixApp struct {
	Name        string
	LockCaching bool
	Hetero      string
	Run         func(cfg core.Config) (string, sim.Duration, core.Report, error)
}

// matrixApps is the kernel table, in canonical order. Matrix and
// internal/fleet both draw from it, so a service-path replay runs
// byte-for-byte the same cells as the in-process harness.
var matrixApps = []MatrixApp{
	{"helmholtz", false, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunHelmholtz(cfg, apps.HelmholtzTest())
		return fpBits(r.Error, float64(r.Iterations)), r.KernelTime, r.Report, err
	}},
	{"ep", false, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunEP(cfg, apps.EPClassT)
		vs := []float64{r.Sx, r.Sy, r.Accepted}
		vs = append(vs, r.Counts[:]...)
		return fpBits(vs...), r.KernelTime, r.Report, err
	}},
	{"cg", false, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunCG(cfg, apps.CGClassT)
		return fpBits(r.Zeta, r.RNorm, float64(r.NZ)), r.KernelTime, r.Report, err
	}},
	{"md", false, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunMD(cfg, apps.MDTest())
		return fpBits(r.E0, r.EFinal, r.MaxDrift), r.KernelTime, r.Report, err
	}},
	{"quad", false, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		// The irregular tasking kernel: adaptive-quadrature tasks with
		// cross-node stealing, so steal traffic degrades gracefully under
		// injected faults like every other protocol.
		r, err := apps.RunQuad(cfg, apps.QuadTest())
		return fpBits(r.Integral, r.TableSum), r.KernelTime, r.Report, err
	}},
	// The dependence-graph and offload kernel always runs on the
	// "fasthalf" heterogeneous machine so device placement is observable
	// in its matrices.
	{"taskdep", false, "fasthalf", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunTaskdep(cfg, apps.TaskdepTest())
		return fpBits(r.PipeSum, r.OffloadSum, r.CheckSum), r.KernelTime, r.Report, err
	}},
	{"lockmix", true, "", func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		// The lock-protocol stress kernel runs with lazy-release tokens
		// (LockCaching, applied by Spec normalization) so the cached lock
		// path (lockcache.go) degrades gracefully too, not just the
		// centralized one.
		r, err := apps.RunLockmix(cfg, apps.LockmixTest())
		return fpBits(r.Sum, r.Expected), r.Report.Time, r.Report, err
	}},
}

// MatrixAppByName resolves one kernel of the matrix table.
func MatrixAppByName(name string) (MatrixApp, error) {
	for _, a := range matrixApps {
		if a.Name == name {
			return a, nil
		}
	}
	return MatrixApp{}, fmt.Errorf("harness: unknown app %q (valid: %s)",
		name, strings.Join(MatrixAppNames(), ", "))
}

// MatrixAppNames returns the kernel names in canonical order.
func MatrixAppNames() []string {
	names := make([]string, len(matrixApps))
	for i, a := range matrixApps {
		names[i] = a.Name
	}
	return names
}

// MatrixModes are the directive-execution modes of the matrices.
func MatrixModes() []string { return []string{"hybrid", "sdsm"} }

// MatrixModeConfig builds the cluster configuration one matrix mode uses:
// "hybrid" is the full ParADE runtime (message-passing collectives for
// small data, migratory home), "sdsm" is the conventional KDSM baseline.
// threadsPerNode <= 0 selects the matrices' one thread per node.
func MatrixModeConfig(mode string, nodes, threadsPerNode int) (core.Config, error) {
	if threadsPerNode <= 0 {
		threadsPerNode = 1
	}
	switch mode {
	case "hybrid":
		return core.Config{Nodes: nodes, ThreadsPerNode: threadsPerNode,
			Mode: core.Hybrid, HomeMigration: true}.WithDefaults(), nil
	case "sdsm":
		return kdsm.Config(nodes, threadsPerNode, 2), nil
	}
	return core.Config{}, fmt.Errorf("harness: unknown mode %q (valid: hybrid, sdsm)", mode)
}

// fpBits fingerprints float64 results exactly: any single-bit
// difference in any field changes the string.
func fpBits(vs ...float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}
