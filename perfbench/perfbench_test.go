package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"

	"parade/internal/core"
)

// okFrac runs n ops of w and returns the ok_frac the benchmark reports.
func okFrac(t *testing.T, w workload, n int) float64 {
	t.Helper()
	var p phase
	for i := 0; i < n; i++ {
		p = appendOp(p, w)
	}
	m := map[string]metric{}
	endToEnd(m, p, 0)
	return m["ok_frac"].Value
}

func appendOp(p phase, w workload) phase {
	t0 := time.Now()
	ok, vns := w.op(nil)
	p.opNs = append(p.opNs, time.Since(t0).Nanoseconds())
	p.virtualNs += vns
	if !ok {
		p.failed++
	}
	p.wall += time.Since(t0)
	return p
}

func TestCorruptGoldenLowersOKFrac(t *testing.T) {
	w, err := newSim(cgSteps(0, simOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := okFrac(t, w, 1); got != 1 {
		t.Fatalf("ok_frac with the committed goldens = %v, want 1", got)
	}
	key := w.steps[0].key
	for _, corrupt := range []func(g *golden){
		func(g *golden) { g.Bits = "0" + g.Bits[1:] },
		func(g *golden) { g.MemHash = "0000000000000000" },
	} {
		g := w.gold[key]
		orig := g
		corrupt(&g)
		w.gold[key] = g
		if got := okFrac(t, w, 2); got >= 1 {
			t.Errorf("ok_frac with corrupted golden %+v = %v, want < 1", g, got)
		}
		w.gold[key] = orig
	}
}

func TestAppCheckLowersOKFrac(t *testing.T) {
	steps := stencilSteps(0, simOpts{})
	w, err := newSim(steps)
	if err != nil {
		t.Fatal(err)
	}
	// An app check that fails (here injected after a correct run) fails
	// the op even though result bits and state match their goldens.
	run := steps[0].run
	w.steps[0].run = func(cfg core.Config) (string, core.Report, error) {
		bits, rep, _ := run(cfg)
		return bits, rep, errors.New("app check failed")
	}
	if got := okFrac(t, w, 1); got >= 1 {
		t.Fatalf("ok_frac with a failing app check = %v, want < 1", got)
	}
}

func TestFleetVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fleet services")
	}
	t.Run("committed goldens", func(t *testing.T) {
		w, err := openFleet(7, t.TempDir(), false, fleetOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if got := okFrac(t, w, 4); got != 1 {
			t.Fatalf("ok_frac = %v, want 1", got)
		}
	})
	t.Run("corrupted golden", func(t *testing.T) {
		w, err := openFleet(7, t.TempDir(), false, fleetOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		for k, g := range w.gold {
			g.MemHash = "0000000000000000"
			w.gold[k] = g
		}
		if got := okFrac(t, w, 2); got >= 1 {
			t.Fatalf("ok_frac with corrupted fleet goldens = %v, want < 1", got)
		}
	})
	t.Run("refused batch", func(t *testing.T) {
		// An admission bound below the batch size makes the service refuse
		// every timed batch with 429.
		w, err := openFleet(7, t.TempDir(), false, fleetOpts{queue: fleetBatch / 2})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if got := okFrac(t, w, 2); got != 0 {
			t.Fatalf("ok_frac with refused batches = %v, want 0", got)
		}
	})
	t.Run("cold start serves hits from the WAL", func(t *testing.T) {
		dir := t.TempDir()
		w, err := openFleet(7, dir, false, fleetOpts{})
		if err != nil {
			t.Fatal(err)
		}
		w.close()
		c, err := openFleet(7, dir, true, fleetOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		if got := okFrac(t, c, 1); got != 1 {
			t.Fatalf("cold-start ok_frac = %v, want 1", got)
		}
	})
}

func TestTailPercentile(t *testing.T) {
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100 - i) // 100..1, unsorted
	}
	pct, v := tailPercentile(ns)
	if v != 90 || pct != 90 {
		t.Fatalf("tail = p%v value %d, want p90 value 90 (10 ops beyond)", pct, v)
	}
	if pct, v := tailPercentile([]int64{5, 3}); v != 3 || pct != 50 {
		t.Fatalf("tail of 2 ops = p%v value %d, want the fastest op", pct, v)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "parade/internal/dsm.(*MMU).ReadF64", "parade/internal/core.(*F64Array).Get"}, "dsm"},
		{[]string{"runtime.mallocgc", "parade/internal/sim.(*Simulator).Run", "main.main"}, "sim"},
		{[]string{"encoding/json.Marshal", "main.(*fleetWorkload).batch"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"internal/poll.(*FD).Read", "net/http.(*persistConn).readLoop"}, "net"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mstart"}, "sched"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestLayerSharesDecodesAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	w, err := newSim(cgSteps(0, simOpts{}))
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		w.op(nil)
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	// Loose on purpose: under -race most samples land in the race runtime.
	if shares["dsm"]+shares["core"]+shares["hlrc"]+shares["sim"] < 0.1 {
		t.Fatalf("a CG profile has little time in core/dsm/hlrc/sim: %v", shares)
	}
}
