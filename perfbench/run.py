#!/usr/bin/env python3
"""Build and run the nanopose benchmark from the root of a checkout.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload d1-stream --seed 1 --seconds 30 --trace 0

builds perfbench/ (cargo, offline, into $CARGO_TARGET_DIR or .bench_build),
runs one workload and passes its report through. The last line of standard
output is the JSON result. The run fails, without a result, if the
repository's crates are missing, the build fails, or the result does not
name exactly the metrics BENCHMARK.json lists.

Steadiness mode runs one workload N times with seeds 1..N:

    python3 perfbench/run.py --steady 10 --workload d2-fleet --seconds 30 --trace 0

and prints each metric's median, IQR, spread (IQR / median, with the
quartiles statistics.quantiles gives), min and max, plus the share of
CPU time the hypervisor stole during each run. The summary is saved under
.bench_out/; the next steadiness run of the same workload, seconds and
trace mode compares its medians against it, but only when the host
fingerprints match. Otherwise it reports "no baseline".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
# Crates the benchmark builds from source; their absence means this is not
# a checkout of the repository.
REQUIRED = ["Cargo.toml"] + [
    os.path.join("crates", c, "Cargo.toml")
    for c in ("np-tensor", "np-nn", "np-quant", "np-gap8", "np-dory",
              "np-dataset", "np-zoo", "np-adaptive", "np-serve")
]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (result, fingerprint, steal share)."""
    steal0, total0 = cpu_ticks()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    steal1, total1 = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if not lines:
        fail(f"{workload} seed {seed} printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} seed {seed}: last line is not JSON (exit {proc.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(want)}")
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), None)
    steal = (steal1 - steal0) / max(1, total1 - total0)
    if echo:
        print(lines[-1])
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return result, fingerprint, steal


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def steady(binary, args):
    bounds = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    runs, fp0 = [], None
    for seed in range(1, args.steady + 1):
        t = time.time()
        result, fp, steal = run_once(binary, args.workload, seed, args.seconds,
                                     args.trace, echo=False)
        if fp0 is None:
            fp0 = fp
        if fp != fp0:
            print(f"seed {seed}: fingerprint {fp} differs from {fp0}: no baseline, not counted")
            continue
        runs.append({"seed": seed, "steal": steal, "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed:>3} {time.time() - t:5.1f}s steal {steal:6.1%} "
              f"failed {result['failed']}/{result['attempted']} {vals}", flush=True)
    if len(runs) < 2:
        fail("need at least two runs with one fingerprint")

    names = list(runs[0]["metrics"])
    print(f"\nfingerprint {json.dumps(fp0)}")
    print(f"{args.workload}, {len(runs)} runs of {args.seconds}s, trace {args.trace}; "
          f"hypervisor steal per run {min(r['steal'] for r in runs):.1%}"
          f"..{max(r['steal'] for r in runs):.1%}")
    print(f"{'metric':<34} {'median':>14} {'IQR':>12} {'spread':>8} {'bound':>6} "
          f"{'min':>14} {'max':>14}")
    summary = {}
    for name in names:
        v = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(v, n=4)
        s, b = spread(v), bounds.get(name)
        flag = "" if b is None or s <= b / 3 else "  (over a third of the bound)"
        print(f"{name:<34} {statistics.median(v):>14.6g} {q3 - q1:>12.4g} {s:>8.1%} "
              f"{'' if b is None else f'{b:.2f}':>6} {min(v):>14.6g} {max(v):>14.6g}{flag}")
        summary[name] = {"median": statistics.median(v), "spread": s,
                         "min": min(v), "max": max(v), "values": v}

    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out",
                        f"steady-{args.workload}-{args.seconds}s-trace{args.trace}.json")
    if os.path.isfile(path):
        with open(path) as f:
            prev = json.load(f)
        if prev["fingerprint"] != fp0:
            print(f"\nprevious summary {path}: no baseline (fingerprint differs)")
        else:
            print(f"\nagainst the previous summary {path}:")
            for name in names:
                old = prev["metrics"].get(name, {}).get("median")
                if old:
                    change = summary[name]["median"] / old - 1
                    b = bounds.get(name)
                    print(f"  {name:<34} {change:+8.1%}"
                          f"{'' if b is None else f'  (bound {b:.2f})'}")
    with open(path, "w") as f:
        json.dump({"fingerprint": fp0, "runs": runs, "metrics": summary}, f, indent=1)
    print(f"\nsummary written to {path}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="run the workload N times (seeds 1..N) and summarise")
    args = p.parse_args()
    binary = build()
    if args.steady:
        steady(binary, args)
    else:
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
