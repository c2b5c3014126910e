"""The traced benchmark run wraps names in rsvdlab's module namespaces by
string (perfbench/spans.py).  Renaming or removing one of them would break
that run without failing any other test, so enter the tracer here."""

import importlib.util
from pathlib import Path

from rsvdlab.harness import ExperimentPlan, run_plan

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_benchmark_name():
    spans = _load_spans()
    modules = {name: importlib.import_module(name)
               for name, *_ in spans.WRAPPED}
    originals = {(mod, attr): getattr(modules[mod], attr)
                 for mod, attr, *_ in spans.WRAPPED}
    plan = ExperimentPlan(
        kind="rate_regression",
        model_params={"b": [[0.8, 0.3], [0.3, 0.8]], "pi": [0.5, 0.5],
                      "d": 2, "k_tilde": 4, "a_n": 2},
        n_grid=(40,), g_list=(1, 2), replicates=1, master_seed=3)
    tracer = spans.Tracer()
    with tracer.installed():
        records = tracer.call(0, "harness.run_plan", run_plan, plan)
    assert all("error" not in rec.metrics for rec in records)
    chain = [s for s in tracer.spans if s.name == "sketch.chain"]
    # the chain span's flop count reads (m_hat, cfg, g_list) by position
    assert len(chain) == 1 and chain[0].size == 2 * 40 * 40 * 2 * 4 * 2
    for (mod, attr), original in originals.items():
        assert getattr(modules[mod], attr) is original
