package main

import (
	"fmt"
	"io"
	"os"
	"time"
)

// The known-effect probe proves each workload can see a change: it runs
// the workload beside a copy with one existing input changed in a way
// whose effect is known, and asserts the named metric moves that way.
// It is a separate mode (-probe), not part of every run.

// sampled is what a probe reads from a few ops of one workload.
type sampled struct {
	p50ns   int64
	virtual float64 // mean simulated ns per op
	tr      *tracer // counters of the traced ops
	ok      bool
}

// samplePair runs n ops of a and of b, alternating, so host drift hits
// both alike; every op is traced for its counters.
func samplePair(a, b workload, n int) (sa, sb sampled) {
	var na, nb []int64
	run := func(w workload, s *sampled, ns *[]int64) {
		t0 := time.Now()
		ok, vns := w.op(s.tr)
		*ns = append(*ns, time.Since(t0).Nanoseconds())
		s.virtual += float64(vns) / float64(n)
		s.ok = s.ok && ok
	}
	sa = sampled{tr: newTracer(), ok: true}
	sb = sampled{tr: newTracer(), ok: true}
	for i := 0; i < n; i++ {
		run(a, &sa, &na)
		run(b, &sb, &nb)
	}
	sa.p50ns, sb.p50ns = median(na), median(nb)
	return sa, sb
}

type probeCase struct {
	workload string
	change   string
	metric   string
	open     func(changed bool) (workload, error)
	n        int
	// moved reports whether the metric moved the known way from base to
	// changed, and the two values it compared.
	moved func(base, changed sampled) (bool, float64, float64)
}

func higher(f func(sampled) float64) func(b, c sampled) (bool, float64, float64) {
	return func(b, c sampled) (bool, float64, float64) { return f(c) > f(b), f(b), f(c) }
}

func lower(f func(sampled) float64) func(b, c sampled) (bool, float64, float64) {
	return func(b, c sampled) (bool, float64, float64) { return f(c) < f(b), f(b), f(c) }
}

func virtualS(s sampled) float64 { return s.virtual / 1e9 }
func p50ms(s sampled) float64    { return float64(s.p50ns) / 1e6 }
func readFaultsPerOp(s sampled) float64 {
	return float64(s.tr.ctr.ReadFaults) / float64(max(s.tr.ops, 1))
}

func probeCases(dir string) []probeCase {
	sim := func(steps func(int, simOpts) []step, o simOpts) func(bool) (workload, error) {
		return func(changed bool) (workload, error) {
			if !changed {
				return newSim(steps(0, simOpts{}))
			}
			// A changed input has no goldens; its runs must still succeed
			// and pass the apps' own checks.
			return &simWorkload{steps: steps(0, o)}, nil
		}
	}
	return []probeCase{
		{"stencil-write", "TCP fabric instead of VIA", "virtual_s",
			sim(stencilSteps, simOpts{fabric: "tcp"}), 3, higher(virtualS)},
		// Update propagation refreshes written pages eagerly at the barrier,
		// so the next iteration's reads no longer fault.
		{"stencil-write", "update policy instead of legacy invalidate", "hlrc.read_faults_per_op",
			sim(stencilSteps, simOpts{policy: "update"}), 2, lower(readFaultsPerOp)},
		{"cg-read", "half the CG matrix order", "op_p50_ms",
			sim(cgSteps, simOpts{cgN: 348}), 15, lower(p50ms)},
		{"sync-tasks", "TCP fabric instead of VIA", "virtual_s",
			sim(syncSteps, simOpts{fabric: "tcp"}), 3, higher(virtualS)},
		{"fleet-matrix", "batches of cache hits only (no fresh cell)", "op_p50_ms",
			func(changed bool) (workload, error) {
				sub, err := os.MkdirTemp(dir, "probe-fleet-")
				if err != nil {
					return nil, err
				}
				o := fleetOpts{}
				if changed {
					o.fresh = -1
				}
				return openFleet(1, sub, false, o)
			}, 40, lower(p50ms)},
	}
}

// runProbes runs every probe case and fails if any metric did not move
// the known way, or any op failed (verification for the baseline, the
// run itself and the apps' own checks for the changed input).
func runProbes(out io.Writer) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	failed := 0
	for _, pc := range probeCases(dir) {
		base, err := pc.open(false)
		if err != nil {
			return fmt.Errorf("%s: %w", pc.workload, err)
		}
		changed, err := pc.open(true)
		if err != nil {
			base.close()
			return fmt.Errorf("%s (%s): %w", pc.workload, pc.change, err)
		}
		sb, sc := samplePair(base, changed, pc.n)
		base.close()
		changed.close()
		ok, vb, vc := pc.moved(sb, sc)
		verdict := "PASS"
		if !ok || !sb.ok || !sc.ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%s %-13s %-44s %-18s %.6g -> %.6g\n", verdict, pc.workload, pc.change, pc.metric, vb, vc)
	}
	if failed > 0 {
		return fmt.Errorf("%d known-effect probe(s) failed", failed)
	}
	return nil
}
