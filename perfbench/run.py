"""rsvdlab benchmark: one workload per process, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The operations run in a fresh worker process (worker.py) that holds only
rsvdlab and its inputs.  This process writes the input files, sends the
worker one operation at a time until their summed wall time reaches S
seconds, checks every operation's outputs, and prints the environment and
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` operations alternate between untraced and traced, and the
metrics are the per-layer ones from the traced half.  See README.md in this
directory.
"""

import argparse
import json
from multiprocessing.connection import Connection
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# how long the worker may take to exit once its pipes are closed
WORKER_EXIT_S = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed wall time of the measured operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def process_start():
    """Boot-clock time at which this process started (Linux, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def checked(call):
    """Run a check; return its CheckError, or None if it passes.  The
    checks, and scipy with them, are imported only here, after set-up."""
    from checks import CheckError
    try:
        call()
    except CheckError as exc:
        return exc
    return None


def measure(workload, seconds, trace, started):
    """Alternate untraced (and, with tracing, traced) operations in a
    worker process until their summed wall time reaches ``seconds``."""
    times = {False: [], True: []}
    items = {False: 0, True: 0}
    cpu = {False: 0.0, True: 0.0}
    attempted = failed = 0
    error = setup_s = None
    workload.prepare_setup()
    workload.prepare(0)
    to_worker, from_worker = os.pipe(), os.pipe()
    fds = (to_worker[0], from_worker[1])
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         *map(str, fds), workload.name, str(workload.seed),
         str(workload.workdir)],
        pass_fds=fds, stdout=subprocess.DEVNULL)
    for fd in fds:
        os.close(fd)
    requests = Connection(to_worker[1], readable=False)
    replies = Connection(from_worker[0], writable=False)
    try:
        replies.recv()
        i = 0
        while (sum(times[False]) + sum(times[True]) < seconds
               or (trace and not times[True])):
            traced = bool(trace) and i % 2 == 1
            if i > 0:
                workload.prepare(i)
            requests.send((i, traced))
            begun, wall, op_cpu, n_items, n_failed, result = replies.recv()
            if i == 0:
                setup_s = begun - started
            times[traced].append(wall)
            cpu[traced] += op_cpu
            items[traced] += n_items
            attempted += n_items
            failed += n_failed
            error = checked(lambda: workload.check(i, result))
            if error is not None:
                break
            i += 1
        requests.send(None)
        peak_rss_mb, spans = replies.recv()
    finally:
        requests.close()
        replies.close()
        try:
            proc.wait(timeout=WORKER_EXIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if error is None:
        error = checked(workload.finish)
    return dict(times=times, items=items, cpu=cpu, attempted=attempted,
                failed=failed, error=error, setup_s=setup_s,
                peak_rss_mb=peak_rss_mb, spans=spans)


def end_to_end(m):
    times = m["times"][False]
    return {
        "setup_s": (m["setup_s"], "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "items_per_s": (m["items"][False] / sum(times), "1/s"),
        "cpu_s_per_item": (m["cpu"][False] / m["items"][False], "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def per_layer(m):
    """Per-item layer metrics of the traced operations; none when a check
    failed before any traced operation ran."""
    from spans import layer_metrics
    if not m["times"][True]:
        return {}
    units = {"rng.normal_mdraws_per_s": "1e6/s",
             "sketch.chain_gflop_per_s": "GFLOP/s",
             "mmio.read_mb_per_s": "MB/s", "mmio.write_mb_per_s": "MB/s"}
    values = layer_metrics(m["spans"], m["items"][True])
    values["trace.overhead_s"] = (statistics.median(m["times"][True])
                                  - statistics.median(m["times"][False]))
    return {name: (value, units.get(name, "s")) for name, value in values.items()}


def main(argv=None):
    started = process_start()
    args = parse_args(argv)
    if not (ROOT / "src" / "rsvdlab" / "__init__.py").is_file():
        print(f"error: no rsvdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        m = measure(workload, args.seconds, args.trace, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + json.dumps(environment(), sort_keys=True))
    runs = {"untraced": len(m["times"][False]), "traced": len(m["times"][True])}
    print("operations: " + json.dumps(runs))
    if m["error"] is not None:
        print(f"check failed: {m['error']}", file=sys.stderr)
    if args.trace:
        from spans import write
        metrics = per_layer(m)
        spans_path = OUT / f"{args.workload}-{args.seed}-spans.jsonl"
        write(m["spans"], spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(m)
    print(json.dumps({
        "correct": m["error"] is None,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
