// Package harness regenerates every figure of the paper's evaluation
// (§6): the directive microbenchmarks of Figs. 6–7 and the application
// execution times of Figs. 8–11, plus the ablation experiments listed in
// DESIGN.md. Each figure is produced as labelled series over the node
// counts, formatted as the text tables EXPERIMENTS.md records.
//
// It also holds the scenario matrix (Matrix, matrix.go), the acceptance
// harness whose cells are the job specs (Spec, spec.go) the fleet
// service runs.
package harness

import (
	"fmt"
	"strings"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/kdsm"
	"parade/internal/microbench"
	"parade/internal/obs"
	"parade/internal/sim"
)

// ObsFunc receives the observability metrics of one cluster run while a
// figure is regenerated: the series label ("ParADE", "1Thread-2CPU", ...),
// the node count, and the run's metrics. A nil ObsFunc disables
// observability entirely (every run keeps the zero-overhead path).
type ObsFunc func(series string, nodes int, m *obs.Metrics)

// Series is one line of a figure: Y values (seconds or microseconds)
// over the X axis (node counts).
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Figure is one reproduced evaluation artifact.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// DefaultNodes is the paper's cluster sweep (up to its 8 SMP nodes).
var DefaultNodes = []int{1, 2, 4, 8}

// Scale tunes workload sizes: "bench" keeps runs simulator-friendly,
// "paper" uses the paper's full problem sizes (slow).
type Scale string

// Workload scales.
const (
	ScaleBench Scale = "bench"
	ScalePaper Scale = "paper"
)

// MicroReps is the directive repetition count (the paper ran "over 100").
const MicroReps = 100

// Fig6Critical reproduces Fig. 6: critical directive overhead, ParADE vs
// KDSM, in microseconds per execution.
func Fig6Critical(nodes []int) (Figure, error) {
	return microFigure("Fig6", "critical", nodes,
		"Performance comparison of the critical directive between ParADE and KDSM", nil)
}

// Fig7Single reproduces Fig. 7: single directive overhead.
func Fig7Single(nodes []int) (Figure, error) {
	return microFigure("Fig7", "single", nodes,
		"Performance comparison of the single directive between ParADE and KDSM", nil)
}

func microFigure(id, directive string, nodes []int, title string, obsFn ObsFunc) (Figure, error) {
	bench, err := microbench.ByName(directive)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID: id, Title: title,
		XLabel: "nodes", YLabel: "time per directive (us)",
		Notes: fmt.Sprintf("%d repetitions per point; 1 thread per node, cLAN VIA fabric", MicroReps),
	}
	parade := Series{Label: "ParADE"}
	baseline := Series{Label: "KDSM"}
	for _, n := range nodes {
		pCfg := core.Config{Nodes: n, ThreadsPerNode: 1, Mode: core.Hybrid, HomeMigration: true}.WithDefaults()
		kCfg := kdsm.Config(n, 1, 2)
		var pRec, kRec *obs.Recorder
		if obsFn != nil {
			pRec, kRec = obs.New(n), obs.New(n)
			pCfg.Obs, kCfg.Obs = pRec, kRec
		}
		pr, err := bench(pCfg, MicroReps)
		if err != nil {
			return Figure{}, err
		}
		kr, err := bench(kCfg, MicroReps)
		if err != nil {
			return Figure{}, err
		}
		if obsFn != nil {
			obsFn(parade.Label, n, pRec.Metrics())
			obsFn(baseline.Label, n, kRec.Metrics())
		}
		parade.X = append(parade.X, n)
		parade.Y = append(parade.Y, pr.PerOp.Micros())
		baseline.X = append(baseline.X, n)
		baseline.Y = append(baseline.Y, kr.PerOp.Micros())
	}
	fig.Series = []Series{parade, baseline}
	return fig, nil
}

// appConfig names the paper's three thread/CPU configurations.
type appConfig struct {
	label string
	make  func(nodes int) core.Config
}

var appConfigs = []appConfig{
	{"1Thread-1CPU", core.Config1T1C},
	{"1Thread-2CPU", core.Config1T2C},
	{"2Thread-2CPU", core.Config2T2C},
}

// appFigure sweeps the three configurations over the node counts.
func appFigure(id, title string, nodes []int, obsFn ObsFunc, run func(cfg core.Config) (sim.Duration, error)) (Figure, error) {
	fig := Figure{
		ID: id, Title: title,
		XLabel: "nodes", YLabel: "execution time (s)",
		Notes: "cLAN VIA fabric; kernel (timed-region) execution time",
	}
	for _, ac := range appConfigs {
		s := Series{Label: ac.label}
		for _, n := range nodes {
			cfg := ac.make(n)
			var rec *obs.Recorder
			if obsFn != nil {
				rec = obs.New(cfg.Nodes)
				cfg.Obs = rec
			}
			d, err := run(cfg)
			if err != nil {
				return Figure{}, err
			}
			if obsFn != nil {
				obsFn(ac.label, n, rec.Metrics())
			}
			s.X = append(s.X, n)
			s.Y = append(s.Y, d.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8CG reproduces Fig. 8: NAS CG execution time (class A in the paper;
// ScaleBench uses class W — class S's vectors span so few pages that
// eight nodes degenerate into pure false sharing, which class A's 64 MB
// problem does not suffer).
func Fig8CG(nodes []int, scale Scale) (Figure, error) {
	return fig8CG(nodes, scale, nil)
}

func fig8CG(nodes []int, scale Scale, obsFn ObsFunc) (Figure, error) {
	class := apps.CGClassW
	if scale == ScalePaper {
		class = apps.CGClassA
	}
	return appFigure("Fig8",
		fmt.Sprintf("Execution time of the CG kernel on cLAN (class %s)", class.Name),
		nodes, obsFn, func(cfg core.Config) (sim.Duration, error) {
			r, err := apps.RunCG(cfg, class)
			return r.KernelTime, err
		})
}

// Fig9EP reproduces Fig. 9: NAS EP execution time (class A in the paper;
// ScaleBench uses 2^20 pairs).
func Fig9EP(nodes []int, scale Scale) (Figure, error) {
	return fig9EP(nodes, scale, nil)
}

func fig9EP(nodes []int, scale Scale, obsFn ObsFunc) (Figure, error) {
	class := apps.EPClass{Name: "bench", M: 20, PerPair: apps.EPClassA.PerPair}
	if scale == ScalePaper {
		class = apps.EPClassA
	}
	return appFigure("Fig9",
		fmt.Sprintf("Execution time of the EP kernel on cLAN (class %s)", class.Name),
		nodes, obsFn, func(cfg core.Config) (sim.Duration, error) {
			r, err := apps.RunEP(cfg, class)
			return r.KernelTime, err
		})
}

// Fig10Helmholtz reproduces Fig. 10.
func Fig10Helmholtz(nodes []int, scale Scale) (Figure, error) {
	return fig10Helmholtz(nodes, scale, nil)
}

func fig10Helmholtz(nodes []int, scale Scale, obsFn ObsFunc) (Figure, error) {
	prm := apps.HelmholtzDefault()
	if scale == ScalePaper {
		prm.N, prm.M, prm.MaxIter = 512, 512, 1000
	}
	return appFigure("Fig10",
		fmt.Sprintf("Execution time of the Helmholtz program on cLAN (%dx%d, %d iters)", prm.N, prm.M, prm.MaxIter),
		nodes, obsFn, func(cfg core.Config) (sim.Duration, error) {
			r, err := apps.RunHelmholtz(cfg, prm)
			return r.KernelTime, err
		})
}

// Fig11MD reproduces Fig. 11.
func Fig11MD(nodes []int, scale Scale) (Figure, error) {
	return fig11MD(nodes, scale, nil)
}

func fig11MD(nodes []int, scale Scale, obsFn ObsFunc) (Figure, error) {
	prm := apps.MDDefault()
	if scale == ScalePaper {
		prm.NP, prm.Steps = 512, 1000
	}
	return appFigure("Fig11",
		fmt.Sprintf("Execution time of the MD program on cLAN (%d particles, %d steps)", prm.NP, prm.Steps),
		nodes, obsFn, func(cfg core.Config) (sim.Duration, error) {
			r, err := apps.RunMD(cfg, prm)
			return r.KernelTime, err
		})
}

// ByID regenerates a figure by its number (6..11).
func ByID(id int, nodes []int, scale Scale) (Figure, error) {
	return ByIDObserved(id, nodes, scale, nil)
}

// ByIDObserved regenerates a figure with observability attached to every
// run: obsFn receives each run's metrics as the sweep progresses. A nil
// obsFn is ByID.
func ByIDObserved(id int, nodes []int, scale Scale, obsFn ObsFunc) (Figure, error) {
	switch id {
	case 6:
		return microFigure("Fig6", "critical", nodes,
			"Performance comparison of the critical directive between ParADE and KDSM", obsFn)
	case 7:
		return microFigure("Fig7", "single", nodes,
			"Performance comparison of the single directive between ParADE and KDSM", obsFn)
	case 8:
		return fig8CG(nodes, scale, obsFn)
	case 9:
		return fig9EP(nodes, scale, obsFn)
	case 10:
		return fig10Helmholtz(nodes, scale, obsFn)
	case 11:
		return fig11MD(nodes, scale, obsFn)
	}
	return Figure{}, fmt.Errorf("harness: no figure %d (data figures are 6..11)", id)
}

// Render formats the figure as an aligned text table.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "  (%s)\n", f.Notes)
	}
	fmt.Fprintf(&b, "%-16s", f.XLabel+" \\ "+f.YLabel)
	if len(f.Series) > 0 {
		for _, x := range f.Series[0].X {
			fmt.Fprintf(&b, "%12d", x)
		}
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-16s", s.Label)
		for _, y := range s.Y {
			fmt.Fprintf(&b, "%12.4f", y)
		}
		b.WriteString("\n")
	}
	return b.String()
}
