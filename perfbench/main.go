// Command perfbench is the repository benchmark: it runs one workload
// closed-loop from a single client for a fixed wall time, verifies every
// op's outputs against committed goldens, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer split) as one JSON line.
//
// It measures the program from outside: it calls the public entry points
// of internal/apps, microbench, harness, core and fleet, reads
// core.Report counters and the obs recorder, and profiles its own
// process. It never sets core.Config.Lanes, so the runtime's default
// event kernel is what gets measured.
//
//	perfbench -workload cg-read -seed 1 -seconds 10 -trace 0
//	perfbench -probe                 # known-effect probes, all workloads
//	perfbench -update-goldens        # regenerate goldens.json (repo root)
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many cold starts set-up time is the median of.
const setupProbes = 9

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds = flag.Float64("seconds", 10, "wall seconds of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		probe   = flag.Bool("probe", false, "run the known-effect probes and exit")
		child   = flag.Bool("setup-child", false, "internal: one cold set-up, then exit")
		walPath = flag.String("wal", "", "internal: fleet WAL for -setup-child")
		ref     = flag.Bool("reference", false, "internal: serve the host-speed reference kernel on stdin/stdout")
		goldens = flag.Bool("update-goldens", false, "rewrite perfbench/goldens.json from the current program (run from the repository root)")
	)
	flag.Parse()

	var err error
	switch {
	case *goldens:
		err = writeGoldens("perfbench/goldens.json")
	case *probe:
		err = runProbes(os.Stdout)
	case *child:
		err = setupChild(*name, *seed, *walPath)
	case *ref:
		err = refServe(os.Stdin, os.Stdout)
	default:
		err = run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	opNs      []int64 // host wall ns per op, in completion order
	tracedNs  []int64 // the subset of opNs that ran traced
	failed    int
	virtualNs int64         // summed over ops
	wall      time.Duration // excluding the reference samples
	cpu       time.Duration // process user+sys over the phase
	allocB    uint64        // TotalAlloc delta over the phase
	scale     float64       // host-speed factor from the phase's reference samples
}

func (p phase) ops() int { return len(p.opNs) }

// timedPhase runs ops back to back until d has elapsed (the op in
// progress at the deadline completes and counts). With a tracer, half the
// ops, picked by a fixed coin flip per op index, run traced: host-speed
// drift during the phase hits traced and untraced ops alike, and neither
// half lines up with a workload's cycle of input types.
func timedPhase(w workload, d time.Duration, tr *tracer, ref *refClient) (phase, error) {
	p := phase{scale: 1}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	var refWall time.Duration
	var lastRef time.Time
	refFrom := 0
	if ref != nil {
		refFrom = len(ref.ns)
	}
	for time.Since(start) < d || p.ops() == 0 {
		if ref != nil && time.Since(lastRef) >= refInterval {
			lastRef = time.Now()
			if _, err := ref.sample(); err != nil {
				return p, err
			}
			refWall += time.Since(lastRef)
		}
		var optr *tracer
		if traced(p.ops()) {
			optr = tr
		}
		t0 := time.Now()
		ok, vns := w.op(optr)
		ns := time.Since(t0).Nanoseconds()
		p.opNs = append(p.opNs, ns)
		if optr != nil {
			p.tracedNs = append(p.tracedNs, ns)
		}
		p.virtualNs += vns
		if !ok {
			p.failed++
		}
	}
	p.wall = time.Since(start) - refWall
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	if ref != nil {
		p.scale = ref.scale(refFrom)
	}
	return p, nil
}

func traced(i int) bool { return splitmix(uint64(i))&1 == 1 }

func run(name string, seed int64, d time.Duration, trace bool) error {
	spec, err := workloadByName(name)
	if err != nil {
		return err
	}
	stampHost(name, seed)
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	w, err := spec.open(seed, scratch, false)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	defer w.close()
	ref, err := startRef()
	if err != nil {
		return err
	}
	defer ref.close()
	var setup time.Duration
	if !trace {
		if setup, err = measureSetup(name, seed, w.walPath(), ref); err != nil {
			return err
		}
	}
	// One verified warm-up op, so lazy set-up inside the process is paid
	// before timing (it is part of setup_s through the cold starts).
	if ok, _ := w.op(nil); !ok {
		return fmt.Errorf("%s: warm-up op failed verification", name)
	}

	res := result{Metrics: map[string]metric{}}
	if !trace {
		p, err := timedPhase(w, d, nil, ref)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = p.ops(), p.failed
		endToEnd(res.Metrics, p, setup)
	} else {
		var fs0 fleetStats
		if f, ok := w.(*fleetWorkload); ok {
			fs0 = f.stats()
		}
		tr := newTracer()
		if err := pprof.StartCPUProfile(&tr.prof); err != nil {
			return err
		}
		p, err := timedPhase(w, d, tr, ref)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = p.ops(), p.failed
		if err := tr.perLayer(res.Metrics, w, p, fs0); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd fills the user-visible metrics of an untraced phase. Host
// times are scaled to the reference host (see reference.go); setup is
// already scaled. The raw values are printed first.
func endToEnd(m map[string]metric, p phase, setup time.Duration) {
	n := float64(p.ops())
	pct, tail := tailPercentile(p.opNs)
	p50, cpu, rate := float64(median(p.opNs))/1e6, float64(p.cpu.Nanoseconds())/1e6/n, n/p.wall.Seconds()
	fmt.Printf("# ops %d, op_tail_ms is p%.1f (%d ops beyond it)\n", p.ops(), pct, p.ops()-int(pct*n/100+0.5))
	fmt.Printf("# raw host times: op_p50_ms %.4g, op_tail_ms %.4g, ops_per_s %.4g, cpu_ms_per_op %.4g; host-speed scale %.4f\n",
		p50, float64(tail)/1e6, rate, cpu, p.scale)
	m["op_p50_ms"] = metric{p50 * p.scale, "ms"}
	m["op_tail_ms"] = metric{float64(tail) / 1e6 * p.scale, "ms"}
	m["ops_per_s"] = metric{rate / p.scale, "1/s"}
	m["cpu_ms_per_op"] = metric{cpu * p.scale, "ms"}
	m["virtual_s"] = metric{float64(p.virtualNs) / 1e9 / n, "s"}
	m["alloc_mb_per_op"] = metric{float64(p.allocB) / (1 << 20) / n, "MB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["ok_frac"] = metric{(n - float64(p.failed)) / n, "frac"}
}

// tailPercentile returns the highest percentile with at least ten ops
// beyond it (the 11th-slowest op) and that percentile.
func tailPercentile(ns []int64) (float64, int64) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return 100 * float64(i+1) / float64(len(s)), s[i]
}

func median(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measureSetup times setupProbes cold starts of this binary, each running
// the workload's set-up and first verified op, with a reference sample
// before each, and returns their median scaled to the reference host.
func measureSetup(name string, seed int64, wal string, ref *refClient) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	from := len(ref.ns)
	var ds []int64
	for i := 0; i < setupProbes; i++ {
		if _, err := ref.sample(); err != nil {
			return 0, err
		}
		cmd := exec.Command(exe, "-setup-child", "-workload", name,
			"-seed", fmt.Sprint(seed), "-wal", wal)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s cold start %d: %w", name, i, err)
		}
		ds = append(ds, time.Since(t0).Nanoseconds())
	}
	raw := time.Duration(median(ds))
	scale := ref.scale(from)
	fmt.Printf("# raw setup_s %.4g; host-speed scale %.4f\n", raw.Seconds(), scale)
	return time.Duration(float64(raw) * scale), nil
}

// setupChild is one cold start: open the workload (for fleet-matrix,
// restart the service over the pre-filled WAL) and verify one op.
func setupChild(name string, seed int64, wal string) error {
	spec, err := workloadByName(name)
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if wal != "" {
		scratch = filepath.Dir(wal)
	}
	w, err := spec.open(seed, scratch, true)
	if err != nil {
		return err
	}
	defer w.close()
	if ok, _ := w.op(nil); !ok {
		return errors.New("first op failed verification")
	}
	return nil
}

// scratchDir makes a private working directory under the build directory
// of the checkout the benchmark runs in.
func scratchDir() (string, error) {
	base := os.Getenv("PERFBENCH_SCRATCH")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-run-")
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stampHost prints the host stamp every speed claim must carry.
func stampHost(name string, seed int64) {
	stamp := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Println("# host", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
