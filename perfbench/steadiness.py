#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench once per seed for each workload (untraced) and prints, per
metric, the median and the spread: the distance between the first and
third quartile of the per-run values (statistics.quantiles, n=4) as a
share of their median, beside the metric's bound from BENCHMARK.json.
The raw host times (before host-speed scaling) follow as raw.* rows.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads cg-read,...] [--json out.json]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """Returns the result object, with the raw (unscaled) host times the
    run printed before it added to its metrics under a "raw." prefix."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        for prefix in ("# raw host times: ", "# raw "):
            if line.startswith(prefix):
                body = line[len(prefix):].split(";")[0]
                for part in body.split(","):
                    k, v = part.split()
                    res["metrics"]["raw." + k] = {"value": float(v), "unit": ""}
                break
    return res


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write the raw per-run values here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    worst = 0.0
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(wl, seed, args.seconds)
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect run", file=sys.stderr)
            runs.append(res)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
        raw[wl] = [{k: v["value"] for k, v in r["metrics"].items()} for r in runs]
        print(f"\n{wl} ({len(runs)} runs of {args.seconds} s)")
        print(f"{'metric':<22}{'median':>12}{'spread':>9}{'bound':>7}")
        raws = sorted(k for k in raw[wl][0] if k.startswith("raw."))
        for name, bound in list(bounds.items()) + [(k, None) for k in raws]:
            vals = [r[name] for r in raw[wl]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            if bound is None:
                print(f"{name:<22}{med:>12.5g}{spread:>9.3f}{'-':>7}")
                continue
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:<22}{med:>12.5g}{spread:>9.3f}{bound:>7.2f}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
