"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \\
        [--seed 1001]

DIR is a checkout of each side (for example made with ``git clone`` and
``git checkout``).  For every workload in the change's BENCHMARK.json, pair
i of 10 runs ``perfbench/run.py --seed SEED+i`` once in each checkout for
the ``run_seconds`` that file sets, the parent first on even i and the
change first on odd i, so drift on the machine falls on both sides alike.
Every workload also gets one ``--trace 1`` run per side on SEED.  The report is
written to BENCH_NAME.json in the change checkout.

The JSON written holds, per workload and end-to-end metric, both sides'
median, quartiles, min, max and every run, the number of pairs the change
won (ties count for neither), the gap between the medians and the parent's
interquartile range; the per-layer metrics of the traced runs; and the
machine (nproc, BLAS, thread variables) and both checkouts' git commits.
Only the standard library is used.
"""

import argparse
import datetime
import json
from pathlib import Path
import statistics
import subprocess
import sys

PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1001)
    return parser.parse_args(argv)


def run(checkout, workload, seed, seconds, trace):
    """One benchmark invocation; returns (env, result) from its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return env, json.loads(lines[-1])


def git(checkout, *args):
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "runs": values}


def compare(parent_runs, change_runs, better):
    """Both sides' summaries, and the pair wins of the change."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent_runs, change_runs))
    parent, change = summary(parent_runs), summary(change_runs)
    return {"parent": parent, "change": change, "change_wins": wins,
            "pairs": len(parent_runs),
            "median_gap": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"]}


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + i for i in range(PAIRS)]
    runs = {w: {side: [] for side in sides} for w in workloads}
    envs = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                envs[side], result = run(sides[side], w, seed, seconds, 0)
                runs[w][side].append(result)
                print(f"{w} seed {seed} {side}: "
                      f"{result['metrics']['op_s_p50']['value']:.3f} s",
                      file=sys.stderr, flush=True)

    report = {w: {} for w in workloads}
    for w in workloads:
        sides_runs = runs[w]
        report[w]["checks"] = {
            side: {"correct": sum(r["correct"] for r in rs),
                   "runs": len(rs),
                   "attempted": sum(r["attempted"] for r in rs),
                   "failed": sum(r["failed"] for r in rs)}
            for side, rs in sides_runs.items()}
        report[w]["metrics"] = {
            name: dict(unit=sides_runs["parent"][0]["metrics"][name]["unit"],
                       better=better[name],
                       **compare([r["metrics"][name]["value"] for r in sides_runs["parent"]],
                                 [r["metrics"][name]["value"] for r in sides_runs["change"]],
                                 better[name]))
            for name in better}

    traces = {}
    for w in workloads:
        traces[w] = {}
        for side in sides:
            _, result = run(sides[side], w, args.seed, seconds, 1)
            traces[w][side] = {name: m["value"] for name, m in result["metrics"].items()}

    out = sides["change"] / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "settings": {"pairs": PAIRS, "seeds": seeds, "seconds": seconds,
                     "order": "parent first on even pairs, change first on odd"},
        "env": {side: {key: envs[side][key]
                       for key in ("nproc", "python", "numpy", "blas", "threads")}
                for side in sides},
        "git": {side: {"commit": git(path, "rev-parse", "HEAD"),
                       "src_tree": git(path, "rev-parse", "HEAD:src")}
                for side, path in sides.items()},
        "workloads": report,
        "traced": traces,
    }, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
