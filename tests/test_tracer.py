"""The benchmark's tracer sees every layer of a Monte Carlo block and of a
one-sample analysis.

The tracer (bench/tracer.py) wraps rdbw's public functions at their
import sites; a code path that computes a stage without calling its
public function would leave that span empty and fail the traced
benchmark checks.  This imports the tracer without changing it.
"""

import importlib.util
from pathlib import Path

from rdbw import cli, estimator, selector, simlab  # noqa: F401  (the tracer also wraps cli)

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

EXPECTED = {
    name for name in tracer.SPAN_NAMES if not name.startswith(("simlab.", "cli."))
} | {"simlab.draw_sample", "simlab.run_monte_carlo"}


def traced_counts():
    t = tracer.Tracer()
    t.install()
    try:
        spec = simlab.DgpSpec("design1", 500, seed=4)
        simlab.run_monte_carlo(spec, "mmse_f", 3)
        sample = simlab.draw_sample(spec, 7)
        pair = selector.select_bandwidths(sample).bandwidths
        estimator.frd_estimate(sample, pair.h_plus, pair.h_minus)
    finally:
        t.uninstall()
    assert t.leftovers() == []
    return tracer.counts(t.spans)


def test_every_wrapped_function_is_hit_with_repeatable_counts():
    counts = traced_counts()
    assert EXPECTED <= set(counts), sorted(EXPECTED - set(counts))
    assert traced_counts() == counts
