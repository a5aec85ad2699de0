// Command parade-bench regenerates the paper's evaluation figures
// (Figs. 6-11) as text tables. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
//
// With -regress it instead runs the substrate benchmark suites (event
// kernel, diff engine, directive microbenchmarks, Fig 6/7 sweeps) and
// writes a JSON report; see scripts/bench.sh.
//
// With -matrix it runs the scenario matrix instead: the cross product of
// the axes in its argument (e.g. "app=cg,md fault=all", "crash=all",
// "fabric=all policy=all lanes=0,1,4"; see harness.ParseMatrix), with
// the cross-cell invariants checked — result bits identical across
// faults, crashes, policies, and lanes; recovered and fault-injected
// runs bit-identical to their baselines — and the cells where the
// adaptive policy beats every fixed one reported. -out FILE also writes
// the report as JSONL.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parade/internal/harness"
	"parade/internal/obs"
)

// metricsPoint is one cluster run's observability summary in the
// -metrics report: which figure, series, and node count produced it.
type metricsPoint struct {
	Figure  string          `json:"figure"`
	Series  string          `json:"series"`
	Nodes   int             `json:"nodes"`
	Metrics json.RawMessage `json:"metrics"`
}

// writeMetrics dumps the collected per-run metrics as one JSON document.
func writeMetrics(path string, points []metricsPoint) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema string         `json:"schema"`
		Points []metricsPoint `json:"points"`
	}{Schema: "parade-bench-metrics/v1", Points: points})
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6..11 or 'all'")
	nodesFlag := flag.String("nodes", "1,2,4,8", "comma-separated node counts")
	scale := flag.String("scale", "bench", "workload scale for figures: bench or paper; 'weak' runs the weak-scaling lane sweep instead")
	scaleLanes := flag.Int("scale-lanes", 0, "weak-scaling: lane worker count for the parallel series (0 = GOMAXPROCS)")
	scaleRounds := flag.Int("scale-rounds", 40, "weak-scaling: compute+barrier rounds per node")
	regress := flag.Bool("regress", false, "run benchmark suites and emit a JSON report instead of figures")
	out := flag.String("out", "-", "regress, weak scaling: report output path ('-' for stdout); matrix: JSONL report path")
	baseline := flag.String("baseline", "", "regress: prior report (JSON) or raw 'go test -bench' output to compare against")
	benchtime := flag.String("benchtime", "1s", "regress: -benchtime passed to go test")
	maxRegress := flag.Float64("max-regress", 0, "regress: exit non-zero if any benchmark slows more than this factor vs baseline (0 disables)")
	metricsOut := flag.String("metrics", "", "write per-figure observability metrics JSON to this file ('-' for stdout)")
	matrix := flag.String("matrix", "", "run the scenario matrix over these axes (e.g. \"app=cg,md fault=all crash=all policy=adaptive lanes=2\") instead of figures")
	flag.Parse()

	if *matrix != "" {
		ok, err := runMatrix(*matrix, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *regress {
		n, err := runRegress(*out, *baseline, *benchtime, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "parade-bench: %d benchmark(s) regressed\n", n)
			os.Exit(1)
		}
		return
	}

	if *scale == "weak" {
		// The sweep's default node list is the 8->1024 weak-scaling ladder;
		// an explicit -nodes overrides it (the figure default would not
		// exercise lane parallelism).
		list := "8,16,32,64,128,256,512,1024"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "nodes" {
				list = *nodesFlag
			}
		})
		nodes, err := parseNodes(list)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(2)
		}
		if err := runScaleSweep(nodes, *scaleLanes, *scaleRounds, *out); err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var nodes []int
	for _, s := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "parade-bench: bad node count %q\n", s)
			os.Exit(2)
		}
		nodes = append(nodes, n)
	}

	ids := []int{6, 7, 8, 9, 10, 11}
	if *fig != "all" {
		id, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: bad figure %q\n", *fig)
			os.Exit(2)
		}
		ids = []int{id}
	}
	var points []metricsPoint
	for _, id := range ids {
		var obsFn harness.ObsFunc
		if *metricsOut != "" {
			figID := fmt.Sprintf("Fig%d", id)
			obsFn = func(series string, n int, m *obs.Metrics) {
				var buf bytes.Buffer
				if err := m.WriteJSON(&buf); err != nil {
					fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
					os.Exit(1)
				}
				points = append(points, metricsPoint{
					Figure: figID, Series: series, Nodes: n,
					Metrics: json.RawMessage(buf.Bytes()),
				})
			}
		}
		f, err := harness.ByIDObserved(id, nodes, harness.Scale(*scale), obsFn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(f.Render())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, points); err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// runMatrix runs the scenario matrix, prints its table, and reports
// whether every invariant held.
func runMatrix(axes, out string) (bool, error) {
	m, err := harness.ParseMatrix(axes)
	if err != nil {
		return false, err
	}
	rep, err := m.Run()
	if err != nil {
		return false, err
	}
	fmt.Print(rep.Render())
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return false, err
		}
		defer f.Close()
		if err := rep.WriteJSONL(f); err != nil {
			return false, err
		}
	}
	return rep.OK(), nil
}
