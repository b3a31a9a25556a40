"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import measure  # noqa: E402  (after the path insert)
import tracer as tr  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, seconds="0.5"):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_record(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(measure.common.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} >= {
        f"{name}.{kind}" for name in tr.SPAN_NAMES for kind in ("calls", "ms", "self_ms")
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record = last_record(run_bench(workload, 0))
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_mc_run_reports_every_layer_with_exact_counts():
    record = last_record(run_bench("mc_n500", 1))
    assert record["correct"] is True
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["selector.select_bandwidths.calls"] == 1.0
    assert metrics["local_poly.fit_boundary.calls"] == 12.0
    assert metrics["kernels.eval_kernel.calls"] == 14.0
    assert metrics["cli.main.calls"] == 0.0
    assert metrics["simlab.pool.speedup"] > 0.0


def test_tracer_wraps_every_import_site_and_restores_it():
    import rdbw
    from rdbw import pilot, selector

    original = selector.assemble_pilots
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.leftovers() == []
        assert selector.assemble_pilots is pilot.assemble_pilots is not original
        assert rdbw.assemble_pilots is pilot.assemble_pilots
        selector.mmse_objective(0.1, 0.2, _coefficients())
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert selector.assemble_pilots is original and rdbw.assemble_pilots is original
    assert tr.counts(tracer.spans) == {"selector.mmse_objective": 1}


def _coefficients():
    from rdbw import selector

    return selector.AmseCoefficients(1.0, -1.0, 0.5, 0.5, 1.0, 1.0, 0.5, 1.0, 0.5, 500)


def test_self_time_subtracts_the_direct_children_only():
    spans = [(0, -1, "a", 0.0, 10.0), (1, 0, "b", 1.0, 4.0), (2, 1, "c", 2.0, 3.0), (3, 0, "b", 5.0, 9.0)]
    agg = tr.aggregate(spans)
    assert agg["a"] == (1, 10.0, 10.0 - 3.0 - 4.0)
    assert agg["b"] == (2, 7.0, 7.0 - 1.0)


def test_a_wrong_output_fails_its_check_and_counts_its_ops():
    w = measure.make_workload("select_n5e5", 3, measure.SIZES["tiny"], ROOT)
    w.setup()
    sel, est = w.reference[0]
    assert w.check(w.reference, 0) == []
    off = dataclasses.replace(sel.bandwidths, objective_value=sel.bandwidths.objective_value * 1.5)
    bad = [(dataclasses.replace(sel, bandwidths=off), est)]
    problems = w.check(bad, 1)
    assert any("mmse_objective" in p for p in problems)

    rounds = [measure.Round("plain", k, None, 1.0, out, {}, error, None)
              for k, (out, error) in enumerate([(w.reference, None), (bad, None), (None, "Traceback: boom")])]
    problems, failed = measure.tally(w, rounds)
    assert failed == 2 * w.ops_per_round
    assert "Traceback: boom" in problems


def test_cli_check_rejects_a_nonzero_exit(tmp_path):
    w = measure.CliWorkload(3, measure.SIZES["tiny"], str(tmp_path))
    w.setup()
    assert list(tmp_path.iterdir()) == []  # the warm-up round removed its files
    assert w.check((0, 1, None, 0), 0) == ["exit codes dgp-sample=0 select=1"]


def test_serial_summary_must_equal_the_pooled_one():
    w = measure.make_workload("mc_n500", 3, measure.SIZES["tiny"], ROOT)
    w.setup()
    pooled = w.reference[w.cell(0)]
    assert w.check(w.round("plain", 0)[0], 0) == []
    drifted = dataclasses.replace(pooled, bias_trimmed=pooled.bias_trimmed + 1e-12)
    assert w.check(drifted, w.rotation) == ["design2/mmse_s: summary differs from the cell's first summary"]


def test_each_cell_weighs_the_same_however_often_it_ran():
    def rnd(cell, wall_s):
        return measure.Round("plain", 0, cell, wall_s, None, {}, None, None)

    rounds = [rnd("a", 1.0), rnd("b", 3.0), rnd("b", 9.0), rnd("b", 3.0)]
    # each cell's median round: one stalled round of "b" does not count
    assert measure.cell_time(rounds) == 1.0 + 3.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("mc_n500", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
