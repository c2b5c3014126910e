"""Spans around the calls that rsvdlab.harness and rsvdlab.cli make into the
other modules, recorded from the benchmark's side.

``Tracer.installed()`` swaps each wrapped name in the calling module's
namespace for a timing wrapper and puts the original back on exit, so
untraced operations run the program unmodified.  Spans are kept in memory
and written out when the run ends.
"""

from contextlib import contextmanager
from dataclasses import asdict, dataclass
import importlib
import itertools
import json
import os
import threading
import time


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    op: int
    id: int
    parent: int   # id of the enclosing span; the operation's root span if none
    size: int     # normal draws, bytes, or flops, depending on the span


def _draws(args, result):
    return int(result.size)


def _file_size(args, result):
    """Bytes on disk of the file named by the first argument."""
    return os.path.getsize(args[0])


def _chain_flops(args, result):
    """Data-multiply flops of one chain, computed as 2 n^2 a_n k_tilde g_max."""
    m_hat, cfg, g_list = args[:3]
    n = m_hat.shape[0]
    return 2 * n * n * cfg.a_n * cfg.k_tilde * max(g_list)


# (module whose namespace holds the name, name, span name, size function)
WRAPPED = (
    ("rsvdlab.harness", "gen_sbm", "models.gen", None),
    ("rsvdlab.harness", "gen_missing_pca", "models.gen", None),
    ("rsvdlab.models", "symmetric_bernoulli", "models.bernoulli", None),
    ("rsvdlab.models", "standard_normal", "rng.normal", _draws),
    ("rsvdlab.harness", "rs_rsvd_sym_chain", "sketch.chain", _chain_flops),
    ("rsvdlab.harness", "sym_eig", "linalg.sym_eig", None),
    ("rsvdlab.harness", "missing_pca_gram", "applications.gram", None),
    ("rsvdlab.harness", "cluster_rows", "clustering.cluster", None),
    ("rsvdlab.harness", "procrustes_align", "subspace.align", None),
    ("rsvdlab.cli", "rs_rsvd_sym", "sketch.sym", None),
    ("rsvdlab.cli", "rs_rsvd_asym", "sketch.asym", None),
    ("rsvdlab.cli", "rsvd_complete", "applications.complete", None),
    ("rsvdlab.cli", "entry_ci_batch", "applications.ci", None),
    ("rsvdlab.cli", "read_matrix_market", "mmio.read", _file_size),
    ("rsvdlab.cli", "write_matrix_market", "mmio.write", _file_size),
    ("rsvdlab.cli", "write_csv", "mmio.write", _file_size),
)

# Root span of an operation's calls, by the module the benchmark calls.
ROOTS = ("harness.run_plan", "cli.main")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = -1

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, size_of):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            size = 0
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(name, start, end, threading.get_ident(),
                                       self.op, sid, parent, size))
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, size_of in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, size_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, op, root_name, fn, *args):
        """Run ``fn(*args)`` as a root span of operation ``op``."""
        self.op = op
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._root = -1
            self.spans.append(Span(root_name, start, end, threading.get_ident(),
                                   op, sid, -1, 0))


def write(spans, path):
    """One JSON object per span, one a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, items):
    """Per-item layer metrics of the traced operations."""
    busy, size = {}, {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        size[s.name] = size.get(s.name, 0) + s.size

    def per_item(name):
        return busy.get(name, 0.0) / items

    def rate(name, unit):
        return size.get(name, 0) / unit / busy[name] if busy.get(name) else 0.0

    self_time = {}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    for s in spans:
        if s.name in ROOTS:
            kids = [(max(a, s.start), min(b, s.end))
                    for a, b in children.get(s.id, [])]
            self_time[s.name] = (self_time.get(s.name, 0.0)
                                 + (s.end - s.start) - _covered(kids))

    return {
        "models.gen_s": per_item("models.gen"),
        "models.bernoulli_s": per_item("models.bernoulli"),
        "rng.normal_s": per_item("rng.normal"),
        "rng.normal_mdraws_per_s": rate("rng.normal", 1e6),
        "sketch.chain_s": per_item("sketch.chain"),
        "sketch.chain_gflop_per_s": rate("sketch.chain", 1e9),
        "sketch.sym_s": per_item("sketch.sym"),
        "sketch.asym_s": per_item("sketch.asym"),
        "linalg.sym_eig_s": per_item("linalg.sym_eig"),
        "applications.gram_s": per_item("applications.gram"),
        "applications.complete_s": per_item("applications.complete"),
        "applications.ci_s": per_item("applications.ci"),
        "clustering.cluster_s": per_item("clustering.cluster"),
        "subspace.align_s": per_item("subspace.align"),
        "mmio.read_s": per_item("mmio.read"),
        "mmio.read_mb_per_s": rate("mmio.read", 1e6),
        "mmio.write_s": per_item("mmio.write"),
        "mmio.write_mb_per_s": rate("mmio.write", 1e6),
        "harness.self_s": self_time.get("harness.run_plan", 0.0) / items,
        "cli.self_s": self_time.get("cli.main", 0.0) / items,
    }
