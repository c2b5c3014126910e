"""Run the bundled plans, or a fixed list of CLI commands, in two checkouts
and compare their outputs byte for byte.

    python3 tools/cmp_plans.py --parent DIR --change DIR [--plans a,b]
    python3 tools/cmp_plans.py --parent DIR --change DIR --cli

DIR is a checkout of each side (for example made with ``git clone`` and
``git checkout``).  Each side runs ``python -m rsvdlab`` with its own
``src`` on PYTHONPATH, one run at a time.

Plans: for every plan bundled in the change's ``src/rsvdlab/plans`` (or
those named by ``--plans``), each side runs ``rsvdlab experiment --plan
NAME``.  One line per plan says whether ``records.csv`` and ``meta.json``
are byte-identical, with both exit codes.

CLI (``--cli``): each side runs every command of ``COMMANDS`` (the README's
examples, then completion and usage-error cases) with ``--out out/NAME``, in
a directory of its own holding the same input files (``write_inputs``,
drawn from a fixed seed), so relative paths read the same in both.  One line
per command says whether every file under ``--out``, stdout, stderr and the
exit code are identical.

The outputs go to a temporary directory, removed at the end.  The exit code
is 0 when everything matches, 1 otherwise.  Only the standard library is
used.
"""

import argparse
import os
from pathlib import Path
import random
import subprocess
import sys
import tempfile

COMPARED = ("records.csv", "meta.json")

# (name, argv after ``rsvdlab``); ``--out out/NAME`` is appended
COMMANDS = [
    ("svd", ["svd", "observed.mm", "--k", "5", "--ktilde", "10", "--an", "4",
             "--g", "3"]),
    ("cluster-file", ["cluster", "adjacency.mm", "--d", "2", "--K", "2", "--g", "2"]),
    ("cluster-gen", ["cluster", "--gen", "sbm:n=1000,K=2,rho=1", "--d", "2",
                     "--K", "2", "--g", "2", "--reps", "100"]),
    ("complete-readme", ["complete", "--gen", "edm:n=300,dim=2,p=0.8", "--k", "4",
                         "--ktilde", "15", "--an", "15", "--g", "5",
                         "--ci", "3,7,0.05"]),
    ("pca", ["pca", "--gen", "pca:d=200,m=500,k=4,p=0.3,sigma=1", "--k", "4",
             "--g", "3"]),
    ("experiment", ["experiment", "--plan", "recovery_table_small", "--parallel", "4"]),
    ("cluster-truth", ["cluster", "adjacency.mm", "--d", "2", "--K", "2",
                       "--truth", "truth.txt"]),
    ("complete-mixed-alphas", ["complete", "--gen", "completion:n=300,k=3,p=0.6",
                               "--k", "3", "--ci", "3,7,0.05", "--ci", "10,40,0.1",
                               "--ci", "5,5,0.05", "--ci", "3,7,0.2",
                               "--ci", "3,7,0.05"]),
    ("complete-exact", ["complete", "--gen", "completion:n=300,k=3,p=0.6", "--k", "3",
                        "--exact", "--ci", "1,1,0.05", "--ci", "2,3,0.1"]),
    ("complete-auto-symmetrized", ["complete", "observed.mm", "--p", "auto",
                                   "--mode", "symmetrized", "--k", "3",
                                   "--ci", "1,2,0.05", "--ci", "0,0,0.3"]),
    ("complete-edm", ["complete", "--gen", "edm:n=200,dim=2,p=0.7", "--k", "4",
                      "--ci", "0,1,0.05", "--ci", "5,5,0.2"]),
    ("complete-ci-index", ["complete", "observed.mm", "--p", "0.6", "--k", "3",
                           "--ci", "500,1,0.05"]),
    ("complete-ci-alpha", ["complete", "observed.mm", "--p", "0.6", "--k", "3",
                           "--ci", "1,2,0.05", "--ci", "1,2,1.5"]),
    # one input source per run, and a truth as long as the graph
    ("complete-file-and-gen", ["complete", "missing.mtx", "--gen",
                               "completion:n=100", "--k", "2"]),
    ("pca-file-and-gen", ["pca", "missing.mtx", "--gen", "pca:d=50,m=100,k=2",
                          "--k", "2"]),
    ("cluster-truth-and-gen", ["cluster", "--gen", "sbm:n=200", "--d", "2", "--K", "2",
                               "--truth", "missing.txt"]),
    ("cluster-short-truth", ["cluster", "adjacency.mm", "--d", "2", "--K", "2",
                             "--truth", "short.txt"]),
    # the symmetric array layout, and a cluster count checked before the sketch
    ("svd-sym-array", ["svd", "symmetric.mm", "--sym", "--k", "3", "--g", "3"]),
    ("cluster-zero-K", ["cluster", "adjacency.mm", "--d", "2", "--K", "0"]),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--plans", default=None,
                        help="comma-separated plan names (default: every bundled plan)")
    parser.add_argument("--cli", action="store_true",
                        help="compare the CLI commands instead of the plans")
    return parser.parse_args(argv)


def run_rsvdlab(checkout, argv, cwd):
    """``python -m rsvdlab ARGV`` in ``cwd`` with the checkout's src; the
    completed process, output captured."""
    env = dict(os.environ)
    src = str(Path(checkout).resolve() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-m", "rsvdlab", *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)


def same_bytes(a, b):
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def compare(parent, change, plans, work):
    """One report line per plan; True when every plan matches."""
    all_same = True
    for plan in plans:
        outs = [work / side / plan for side in ("parent", "change")]
        codes = [run_rsvdlab(checkout, ["experiment", "--plan", plan, "--out", str(out)],
                             checkout).returncode
                 for checkout, out in zip((parent, change), outs)]
        same = {name: same_bytes(outs[0] / name, outs[1] / name) for name in COMPARED}
        ok = all(same.values()) and codes[0] == codes[1] == 0
        all_same &= ok
        files = "  ".join(f"{name} {'identical' if same[name] else 'DIFFERS'}"
                          for name in COMPARED)
        print(f"{'ok  ' if ok else 'FAIL'} {plan}: {files}  "
              f"(exit {codes[0]} / {codes[1]})", flush=True)
    return all_same


def _write_mm(path, n, entry):
    """An n x n ``coordinate real symmetric`` file of the lower-triangle
    entries (i >= j) that ``entry(i, j)`` gives a nonzero value."""
    lines = [(i + 1, j + 1, v) for i in range(n) for j in range(i + 1)
             if (v := entry(i, j)) != 0.0]
    body = "".join(f"{i} {j} {v!r}\n" for i, j, v in lines)
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{n} {n} {len(lines)}\n{body}")


def _write_array_sym(path, n, entry):
    """An n x n ``array real symmetric`` file: the lower triangle
    (i >= j) that ``entry(i, j)`` gives, column by column."""
    body = "".join(f"{entry(i, j)!r}\n" for j in range(n) for i in range(j, n))
    path.write_text(f"%%MatrixMarket matrix array real symmetric\n{n} {n}\n{body}")


def write_inputs(directory):
    """The commands' input files, the same on every call: ``observed.mm``, a
    rank-3 signal plus noise observed at rate 0.6 (n = 200); ``adjacency.mm``,
    a two-block graph (n = 300) with its labels in ``truth.txt`` and the
    first 250 of them in ``short.txt``; ``symmetric.mm``, a rank-3 signal
    plus noise in the symmetric array layout (n = 150)."""
    rng = random.Random(20240501)
    n = 200
    factors = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(n)]
    _write_mm(directory / "observed.mm", n, lambda i, j: (
        sum(a * b for a, b in zip(factors[i], factors[j])) + rng.gauss(0.0, 0.5)
        if rng.random() < 0.6 else 0.0))
    n = 300
    labels = [i % 2 for i in range(n)]
    _write_mm(directory / "adjacency.mm", n, lambda i, j: (
        1.0 if i != j and rng.random() < (0.5 if labels[i] == labels[j] else 0.05)
        else 0.0))
    (directory / "truth.txt").write_text("".join(f"{lab}\n" for lab in labels))
    (directory / "short.txt").write_text("".join(f"{lab}\n" for lab in labels[:250]))
    n = 150
    factors = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(n)]
    _write_array_sym(directory / "symmetric.mm", n, lambda i, j: (
        sum(a * b for a, b in zip(factors[i], factors[j])) + rng.gauss(0.0, 0.5)))


def _tree(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare_cli(parent, change, work):
    """One report line per command of COMMANDS; True when every one matches."""
    sides = {"parent": parent, "change": change}
    for side in sides:
        (work / side).mkdir(parents=True)
        write_inputs(work / side)
    all_same = True
    for name, argv in COMMANDS:
        procs = {side: run_rsvdlab(checkout, [*argv, "--out", f"out/{name}"], work / side)
                 for side, checkout in sides.items()}
        outs = [_tree(work / side / "out" / name) for side in sides]
        parts = {"outputs": outs[0] == outs[1],
                 "stdout": procs["parent"].stdout == procs["change"].stdout,
                 "stderr": procs["parent"].stderr == procs["change"].stderr,
                 "exit": procs["parent"].returncode == procs["change"].returncode}
        ok = all(parts.values())
        all_same &= ok
        detail = "  ".join(f"{part} {'identical' if same else 'DIFFERS'}"
                           for part, same in parts.items())
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}  ({len(outs[0])} files, "
              f"exit {procs['parent'].returncode} / {procs['change'].returncode})",
              flush=True)
        if not (parts["stderr"] and parts["exit"]):
            for side, proc in procs.items():
                print(f"     {side} stderr: {proc.stderr.decode().strip()}", flush=True)
    return all_same


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        if args.cli:
            return 0 if compare_cli(args.parent, args.change, Path(work)) else 1
        plans = (args.plans.split(",") if args.plans else
                 sorted(p.stem for p in (args.change / "src" / "rsvdlab" / "plans")
                        .glob("*.json")))
        return 0 if compare(args.parent, args.change, plans, Path(work)) else 1


if __name__ == "__main__":
    sys.exit(main())
