"""Command-line interface: decomposition, the three applications, and the
experiment harness.

Every command returns its outputs, a mapping from fixed filename to
payload, and a meta.json dict carrying the fully resolved configuration
(derived seeds, the k_tilde and a_n the sketch used), so reruns with the
same flags are byte-identical.  ``main`` creates --out and writes them only
once the command has succeeded, so a failed run leaves --out as it was.
Exit codes: 0 success, 1 numerical failure, 2 usage or parse error.
"""

import argparse
from dataclasses import asdict, astuple, replace
from importlib import resources
import json
import os
from pathlib import Path
import sys

import numpy as np

from .applications import (
    check_entries,
    entry_ci_batch,
    exact_complete,
    rsvd_complete,
    rsvd_missing_pca,
    rsvd_spectral_cluster,
)
from .harness import (
    EDM,
    INTEGER,
    NUMBER,
    NUMERICAL_FAILURES,
    emit_csv,
    load_plan,
    resolve_params,
    run_plan,
)
from .linalg import NotSymmetricError
from .mmio import read_matrix_market, write_csv, write_matrix_market
from .models import (
    gen_completion,
    gen_edm,
    gen_missing_pca,
    gen_sbm,
    symmetric_bernoulli,
)
from .rng import RngStream
from .sketch import resolve_a_n, resolve_sketch, rs_rsvd_asym, rs_rsvd_sym
from .stats import check_probability

DEFAULT_SEED = 20240501

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _resolve_seed(default):
    """The master seed: RSVDLAB_SEED when set, else ``default``."""
    env = os.environ.get("RSVDLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"RSVDLAB_SEED must be an integer, got {env!r}") from exc
    return default


def _parse_gen(spec_str):
    """Parse 'kind:key=val,key=val' generator descriptions."""
    kind, _, rest = spec_str.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise UsageError(f"malformed generator parameter {item!r}")
            try:
                params[key] = int(val)
            except ValueError:
                try:
                    params[key] = float(val)
                except ValueError:
                    params[key] = val
    return kind, params


def _sketch_config(args, n, k, stream):
    """The CLI's sketch: k_tilde k + 5 and a_n ceil(log n) unless set."""
    rule = "ceil_log" if args.an == "log" else args.an
    try:
        resolve_a_n(rule, n)
    except ValueError as exc:
        raise UsageError(f"--an: {exc}") from exc
    k_tilde = args.ktilde if args.ktilde is not None else k + 5
    return resolve_sketch(k, k_tilde, rule, n, args.g, stream)


def _common_meta(args, seed, stream, cfg, extra):
    """meta.json of a sketch command: seeds and the resolved sketch config."""
    stream_meta = {"master_seed": stream.master_seed, "stream_id": stream.stream_id}
    return {"command": args.command, "seed": seed, "stream": stream_meta,
            "g": cfg.g, "ktilde": cfg.k_tilde, "an": cfg.a_n, **extra}


def _add_input_flags(parser, what, example):
    parser.add_argument("input", nargs="?", default=None,
                        help=f"{what} Matrix Market path")
    parser.add_argument("--gen", default=None, help=f"generator, e.g. {example}")


def _add_sketch_flags(parser, default_g=2):
    parser.add_argument("--ktilde", type=int, default=None,
                        help="sketch width (default: k + 5)")
    parser.add_argument("--an", default="log",
                        help="number of repeated sketches, 'log' for ceil(log n), "
                             "or 'ceil_log_sq' for ceil(log(n)^2)")
    parser.add_argument("--g", type=int, default=default_g,
                        help="power-iteration count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed (env RSVDLAB_SEED overrides)")
    parser.add_argument("--out", required=True, help="output directory")


def cmd_svd(args):
    a = read_matrix_market(args.input)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed, 0).child("svd")
    cfg = _sketch_config(args, a.shape[1], args.k, stream)
    symmetric = args.mode == "sym" or (
        args.mode == "auto" and a.shape[0] == a.shape[1])
    try:
        out = rs_rsvd_sym(a, cfg) if symmetric else rs_rsvd_asym(a, cfg)
    except NotSymmetricError:
        if args.mode == "sym":
            raise
        # auto mode: the symmetric sketch checks symmetry before any draw
        symmetric = False
        out = rs_rsvd_asym(a, cfg)
    files = {"U.mm": out.u_hat_g,
             "sigma.csv": (("sigma",), [(float(s),) for s in out.sigma_tilde])}
    return files, _common_meta(args, seed, stream, cfg, {
        "input": str(args.input), "k": args.k, "symmetric": symmetric,
        "chosen_sketch": int(out.chosen_sketch),
        "sigma_k_sketch": float(out.sigma_k_sketch)})


def _gen_sbm(v, stream):
    n, k_blocks = v["n"], v["K"]
    rho = v["rho"] * n ** v["rho_exp"]
    b = np.full((k_blocks, k_blocks), v["b_out"])
    np.fill_diagonal(b, v["b_in"])
    pi = np.full(k_blocks, 1.0 / k_blocks)
    inst = gen_sbm(n, b, pi, rho, v["d"], stream)
    return inst.a, inst.tau, None, {"n": n, "rho": rho}


def _gen_completion(v, stream):
    inst = gen_completion(v["n"], v["k"], v["scale"], v["p"], v["sigma"],
                          bool(v["homogeneous"]), stream)
    return inst.t_hat, inst.t, v["p"], {}


def _gen_edm(v, stream):
    d_mat, _ = gen_edm(v["n"], v["dim"], v["box"], stream)
    omega = symmetric_bernoulli(v["n"], v["p"], stream.child("mask").generator())
    return omega * d_mat, d_mat, v["p"], {}


def _gen_pca(v, stream):
    inst = gen_missing_pca(v["d"], v["m"], v["k"], v["p"], v["sigma"], stream)
    return inst.x_obs, None, v["p"], {}


# each --gen generator: its parameters (see harness.resolve_params) and
# the function that draws from them
_GENERATORS = {
    "sbm": ({"n": (INTEGER, 1000), "K": (INTEGER, 2), "rho": (NUMBER, 1.0),
             "rho_exp": (NUMBER, 0.0), "b_out": (NUMBER, 0.3),
             "b_in": (NUMBER, 0.8), "d": (INTEGER, lambda v: v["K"])}, _gen_sbm),
    "completion": ({"p": (NUMBER, 0.5, check_probability), "n": (INTEGER, 500),
                    "k": (INTEGER, 3), "scale": (NUMBER, 1.0),
                    "sigma": (NUMBER, 1.0), "homogeneous": (INTEGER, 1)},
                   _gen_completion),
    "edm": ({"n": (INTEGER, 300), **EDM}, _gen_edm),
    "pca": ({"p": (NUMBER, 1.0, check_probability), "d": (INTEGER, 200),
             "m": (INTEGER, 500), "k": (INTEGER, 4), "sigma": (NUMBER, 0.0)}, _gen_pca),
}


def _load_input(args, stream, kinds):
    """(matrix, truth, p, source meta) from the input file, or from the
    --gen generator of _GENERATORS named in ``kinds``, which draws from
    ``stream``; truth and p are None where the source gives none."""
    named = " or ".join(f"{kind}:..." for kind in kinds)
    if args.gen is not None and args.input is not None:
        raise UsageError("give an input file or --gen, not both")
    if args.gen is None:
        if args.input is None:
            raise UsageError(f"provide an input file or --gen {named}")
        return read_matrix_market(args.input), None, None, {"input": str(args.input)}
    kind, params = _parse_gen(args.gen)
    if kind not in kinds:
        raise UsageError(f"{args.command} supports --gen {named}, got {kind!r}")
    table, draw = _GENERATORS[kind]
    matrix, truth, p, extra = draw(resolve_params(table, params, f"--gen {kind}"), stream)
    return matrix, truth, p, {"generator": args.gen, **extra}


def _sampling_rate(args, gen_p, missing):
    """--p when given, else the generator's p; UsageError(missing) if neither."""
    if args.p is None and gen_p is None:
        raise UsageError(missing)
    return gen_p if args.p is None else args.p


def cmd_cluster(args):
    seed = _resolve_seed(args.seed)
    base = RngStream(seed, 0)
    reps = args.reps
    if reps < 1:
        raise UsageError(f"--reps must be >= 1, got {reps}")
    if reps > 1 and args.gen is None:
        raise UsageError("--reps > 1 requires --gen")
    if args.truth is not None and args.gen is not None:
        raise UsageError("give --truth or --gen, not both (--gen draws the truth)")
    recovery_rows = []
    for rep in range(reps):
        stream = base.child("cluster", rep)
        a, truth, _, meta_src = _load_input(args, stream.child("model"), ("sbm",))
        if args.truth:
            truth = np.loadtxt(args.truth, dtype=np.int64, ndmin=1)
        cfg = _sketch_config(args, a.shape[0], args.d, stream.child("sketch"))
        result = rsvd_spectral_cluster(a, args.K, cfg,
                                       clusterer=args.clusterer, truth=truth)
        if rep == 0:
            first_labels = result.tau_hat
        if truth is not None:
            recovery_rows.append((rep, int(result.exact_recovery),
                                  float(result.error_rate)))
    files = {"labels.csv": (("node", "label"),
                            [(i, int(lab)) for i, lab in enumerate(first_labels)])}
    extra = {"d": args.d, "K": args.K, "clusterer": args.clusterer,
             "reps": reps, **meta_src}
    if recovery_rows:
        files["recovery.csv"] = (("replicate", "exact", "error_rate"), recovery_rows)
        extra["recovery_frequency"] = float(
            np.mean([row[1] for row in recovery_rows]))
    return files, _common_meta(args, seed, base, cfg, extra)


def cmd_complete(args):
    seed = _resolve_seed(args.seed)
    base = RngStream(seed, 0).child("complete")
    t_hat, truth, gen_p, src_meta = _load_input(args, base.child("model"),
                                                ("completion", "edm"))
    p = _sampling_rate(args, gen_p, "--p is required unless a generator supplies it")
    try:
        p = p if p == "auto" else float(p)
    except ValueError as exc:
        raise UsageError(f"--p must be a probability or 'auto', got {args.p!r}") from exc
    n = t_hat.shape[0]
    cfg = _sketch_config(args, n, args.k, base.child("sketch"))
    # every spec is parsed and its entry and alpha checked before the
    # completion runs
    specs = []
    for spec in args.ci or []:
        try:
            i, j, alpha = spec.split(",")
            i, j, alpha = int(i), int(j), float(alpha)
        except ValueError:
            raise UsageError(f"--ci expects 'i,j,alpha', got {spec!r}") from None
        check_entries([(i, j, alpha)], n, f"--ci {spec!r}")
        specs.append((i, j, alpha))
    if args.exact:
        result = exact_complete(t_hat, p, args.k, mode=args.mode)
    else:
        result = rsvd_complete(t_hat, p, cfg, mode=args.mode)
    # one batch for every level; rows in flag order, columns in EntryCI's
    ci_rows = [astuple(ci) for ci in entry_ci_batch(result, specs)]
    files = {"completed.mm": result.t_hat_g,
             "ci.csv": (("i", "j", "alpha", "estimate", "v_hat", "lo", "hi"), ci_rows)}
    extra = {"k": args.k, "p_used": result.p_used, "mode": result.mode,
             "exact": bool(args.exact), **src_meta}
    if truth is not None:
        err = result.t_hat_g - truth
        extra["frob_err_per_n"] = float(np.linalg.norm(err)) / n
        extra["max_err"] = float(np.max(np.abs(err)))
    return files, _common_meta(args, seed, base, cfg, extra)


def cmd_pca(args):
    seed = _resolve_seed(args.seed)
    base = RngStream(seed, 0).child("pca")
    x_obs, _, gen_p, src_meta = _load_input(args, base.child("model"), ("pca",))
    p = _sampling_rate(args, gen_p, "--p is required with an input file")
    cfg = _sketch_config(args, x_obs.shape[0], args.k, base.child("sketch"))
    u = rsvd_missing_pca(x_obs, p, cfg)
    return {"U.mm": u}, _common_meta(args, seed, base, cfg,
                                     {"k": args.k, "p": p, **src_meta})


def _locate_plan(plan_arg):
    """The plan file, else the bundled plan of that name, with or without .json."""
    bundled = resources.files("rsvdlab").joinpath("plans")
    for path in (Path(plan_arg), bundled / plan_arg, bundled / (plan_arg + ".json")):
        if path.is_file():
            return path
    raise UsageError(f"plan {plan_arg!r} not found (no file and no bundled plan)")


def cmd_experiment(args):
    location = _locate_plan(args.plan)
    try:
        plan = load_plan(json.loads(location.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid plan JSON: {exc}") from exc
    except KeyError as exc:
        raise UsageError(f"plan is missing required field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise UsageError(f"invalid plan field: {exc}") from exc
    parallelism = plan.parallelism if args.parallel is None else args.parallel
    plan = replace(plan, parallelism=parallelism,
                   master_seed=_resolve_seed(plan.master_seed))
    records = run_plan(plan)
    meta = {"command": "experiment", "plan": asdict(plan), "records": len(records)}
    return {"records.csv": records}, meta


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsvdlab",
        description="Randomized SVD laboratory: sketching, clustering, "
                    "completion, missing-data PCA, and Monte-Carlo plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_svd = sub.add_parser("svd", help="sketched SVD of a Matrix Market file")
    p_svd.add_argument("input", help="Matrix Market input path")
    p_svd.add_argument("--k", type=int, required=True, help="target rank")
    mode = p_svd.add_mutually_exclusive_group()
    mode.add_argument("--sym", dest="mode", action="store_const", const="sym",
                      help="treat input as symmetric")
    mode.add_argument("--asym", dest="mode", action="store_const", const="asym",
                      help="treat input as rectangular")
    p_svd.set_defaults(mode="auto")
    _add_sketch_flags(p_svd)
    p_svd.set_defaults(func=cmd_svd)

    p_cluster = sub.add_parser("cluster", help="spectral clustering of a graph")
    _add_input_flags(p_cluster, "adjacency", "sbm:n=1000,K=2,rho=1")
    p_cluster.add_argument("--d", type=int, required=True,
                           help="embedding dimension")
    p_cluster.add_argument("--K", type=int, required=True,
                           help="number of clusters")
    p_cluster.add_argument("--truth", default=None,
                           help="path to true labels (one per line)")
    p_cluster.add_argument("--reps", type=int, default=1,
                           help="generator replicates")
    p_cluster.add_argument("--clusterer", choices=("kmeans", "kmedians"),
                           default="kmeans")
    _add_sketch_flags(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_complete = sub.add_parser("complete", help="low-rank matrix completion")
    _add_input_flags(p_complete, "observed",
                     "completion:n=500,k=3,p=0.5 or edm:n=300,p=0.8")
    p_complete.add_argument("--p", default=None,
                            help="sampling probability or 'auto'")
    p_complete.add_argument("--k", type=int, required=True, help="target rank")
    p_complete.add_argument("--mode", choices=("one_sided", "symmetrized"),
                            default="one_sided")
    p_complete.add_argument("--ci", action="append", default=None,
                            metavar="I,J,ALPHA",
                            help="entry confidence interval; repeatable")
    p_complete.add_argument("--exact", action="store_true",
                            help="use the exact eigendecomposition baseline")
    _add_sketch_flags(p_complete, default_g=5)
    p_complete.set_defaults(func=cmd_complete)

    p_pca = sub.add_parser("pca", help="PCA from partially observed data")
    _add_input_flags(p_pca, "observed", "pca:d=200,m=500,k=4,p=0.3")
    p_pca.add_argument("--p", type=float, default=None,
                       help="sampling probability")
    p_pca.add_argument("--k", type=int, required=True, help="target rank")
    _add_sketch_flags(p_pca, default_g=3)
    p_pca.set_defaults(func=cmd_pca)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo plan")
    p_exp.add_argument("--plan", required=True,
                       help="plan JSON path or bundled plan name")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--parallel", type=int, default=None,
                       help="override plan parallelism")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        files, meta = args.func(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            if name.endswith(".mm"):
                write_matrix_market(out_dir / name, payload)
            elif name == "records.csv":
                emit_csv(payload, out_dir / name)
            else:
                write_csv(out_dir / name, *payload)
        (out_dir / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
