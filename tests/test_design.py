"""Design checks on the package source itself.

Every public top-level function or class in ``src/rsvdlab`` must be used by
the package: a name that only tests call is a test reference and belongs in
``tests/_oracles.py``.  Whether a matrix counts as symmetric is decided in
``linalg.py`` alone, so the sketch and the exact baseline accept the same
matrices.  In ``cli.py`` only ``main`` writes files, after the command has
returned, so a failed command cannot leave partial output.  Model and
generator parameters are read only through their declared tables, so a
default is stated once and every bundled plan passes the strict loader; each
plan kind is keyed in one dict of ``harness.py``, its registry entry, and
each ``--gen`` generator in one dict of ``cli.py``.  No
``except`` clause catches every exception, so a fault cannot turn into a
result.
"""

import ast
from pathlib import Path
import re

import rsvdlab
from rsvdlab.harness import load_plan

SRC = Path(rsvdlab.__file__).parent

ALLOWED = {
    "main",            # the console script's entry point
    # rate predictions and per-replicate slopes that the acceptance suite
    # reads; ROADMAP item 2 gives them a caller in `rsvdlab experiment`
    "rate_exponent",
    "rate_slopes",
}


def _public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used_names(tree):
    """Names loaded or attributes read anywhere in the module, except a
    top-level definition's mentions of its own name."""
    used = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                used.add(name)
    return used


def test_no_public_name_is_only_used_by_tests():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _public_definitions(tree):
            defined[name] = path.name
        used |= _used_names(tree)
    unused = sorted(f"{defined[name]}:{name}" for name in set(defined) - used - ALLOWED)
    assert not unused, f"public names no module of the package uses: {unused}"
    assert ALLOWED <= set(defined), "an allowlisted name no longer exists"


def test_no_broad_except():
    # a fault must surface with its own message, not become a result
    broad = {"Exception", "BaseException"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if node.type is None or broad & {ast.unparse(c) for c in caught}:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, f"broad except clauses: {offenders}"


def test_symmetry_is_decided_only_in_linalg():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "symmetry_defect":
                offenders.append(f"{path.name}: uses symmetry_defect")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and re.search(r"SYM.*TOL", target.id, re.I):
                    offenders.append(f"{path.name}: defines {target.id}")
    assert not offenders, f"a second symmetry rule outside linalg.py: {offenders}"


def test_only_cli_main_writes_outputs():
    writers = {"write_matrix_market", "write_csv", "emit_csv", "mkdir", "write_text"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            continue
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in writers:
                offenders.append(f"{getattr(top, 'name', 'module level')}: calls {name}")
    assert not offenders, f"cli.py writes outside main: {offenders}"


# receivers of ``.get`` that are not parameter mappings
GET_RECEIVERS = {
    "os.environ",    # RSVDLAB_SEED
    "rec.metrics",   # a record's metrics in rate_regression
}


def test_parameters_are_read_only_through_their_tables():
    offenders = []
    for name in ("harness.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and ast.unparse(node.func.value) not in GET_RECEIVERS):
                offenders.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, f"a parameter read past its table: {offenders}"


def test_each_plan_kind_is_keyed_in_one_dict():
    # a kind's parameter table and runner are one registry entry, so two
    # dicts keyed by the kinds cannot disagree
    kinds = {load_plan(path).kind for path in (SRC / "plans").glob("*.json")}
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    keyed = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and key.value in kinds:
                    keyed.setdefault(key.value, []).append(node.lineno)
    repeated = {kind: lines for kind, lines in keyed.items() if len(lines) > 1}
    assert not repeated, f"plan kinds keyed in more than one dict: {repeated}"


# the generator names ``--gen`` accepts
GENERATORS = ("sbm", "completion", "edm", "pca")


def test_each_generator_is_keyed_in_one_dict():
    # a generator's parameter table and draw are one registry entry, so the
    # commands name generators and no second dict can disagree with it
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    keyed = {name: [] for name in GENERATORS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and key.value in keyed:
                    keyed[key.value].append(node.lineno)
    wrong = {name: lines for name, lines in keyed.items() if len(lines) != 1}
    assert not wrong, f"generators not keyed in exactly one dict: {wrong}"


def test_every_bundled_plan_passes_the_strict_loader():
    paths = sorted((SRC / "plans").glob("*.json"))
    assert len(paths) == 9
    for path in paths:
        plan = load_plan(path)
        assert set(plan.model_params) <= set(plan.resolved_params), path.name
