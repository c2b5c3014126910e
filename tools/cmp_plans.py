"""Run the bundled plans in two checkouts and compare their outputs byte for byte.

    python3 tools/cmp_plans.py --parent DIR --change DIR [--plans a,b]

DIR is a checkout of each side (for example made with ``git clone`` and
``git checkout``).  For every plan bundled in the change's
``src/rsvdlab/plans`` (or those named by ``--plans``), each side runs
``python -m rsvdlab experiment --plan NAME`` with its own ``src`` on
PYTHONPATH, one plan at a time.  One line per plan says whether
``records.csv`` and ``meta.json`` are byte-identical, with both exit codes.
The outputs go to a temporary directory, removed at the end.  The exit code
is 0 when every plan matches, 1 otherwise.
Only the standard library is used.
"""

import argparse
import os
from pathlib import Path
import subprocess
import sys
import tempfile

COMPARED = ("records.csv", "meta.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--plans", default=None,
                        help="comma-separated plan names (default: every bundled plan)")
    return parser.parse_args(argv)


def run_experiment(checkout, plan, out):
    """``rsvdlab experiment --plan plan --out out`` in ``checkout``; its exit code."""
    env = dict(os.environ)
    src = str(Path(checkout).resolve() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, "-m", "rsvdlab", "experiment", "--plan", plan,
           "--out", str(out)]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          check=False).returncode


def same_bytes(a, b):
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def compare(parent, change, plans, work):
    """One report line per plan; True when every plan matches."""
    all_same = True
    for plan in plans:
        outs = [work / side / plan for side in ("parent", "change")]
        codes = [run_experiment(checkout, plan, out)
                 for checkout, out in zip((parent, change), outs)]
        same = {name: same_bytes(outs[0] / name, outs[1] / name) for name in COMPARED}
        ok = all(same.values()) and codes[0] == codes[1] == 0
        all_same &= ok
        files = "  ".join(f"{name} {'identical' if same[name] else 'DIFFERS'}"
                          for name in COMPARED)
        print(f"{'ok  ' if ok else 'FAIL'} {plan}: {files}  "
              f"(exit {codes[0]} / {codes[1]})", flush=True)
    return all_same


def main(argv=None):
    args = parse_args(argv)
    plans = (args.plans.split(",") if args.plans else
             sorted(p.stem for p in (args.change / "src" / "rsvdlab" / "plans").glob("*.json")))
    with tempfile.TemporaryDirectory() as work:
        return 0 if compare(args.parent, args.change, plans, Path(work)) else 1


if __name__ == "__main__":
    sys.exit(main())
