"""Measurement process: runs one workload for a fixed time, checks every
output, and prints one JSON record on its last stdout line.

`run.py` starts this in its own process, so that the peak memory it
reports covers only the workload, and adds the set-up time measured in fresh interpreters.

A workload is a fixed *round* of operations, built from ``--seed`` and
repeated until ``--seconds`` have passed.  The Monte Carlo workloads
rotate through four cells, one cell per round, and run at least one full
rotation; the other workloads repeat one round.  A round that repeats a
cell, or a round of a single-round workload, gets the same inputs, so its
outputs must equal the first ones.  With ``--trace 1`` untraced and traced
rounds of the same cell alternate (plus a round on the process pool for
``mc_n500``), and the record holds per-layer metrics from the traced
rounds instead of the end-to-end ones.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import common  # before numpy: pins the BLAS threads
import numpy as np
import rdbw
from rdbw import cli, estimator, selector, simlab
from rdbw.errors import RdbwError

import tracer as tr

SIZES = {
    # 1000 reps per cell, as in the documented simulation (`rdbw simulate`'s default)
    "full": {"mc_reps": 1000, "select_n": 500_000, "select_samples": 3, "cli_n": 200_000},
    "tiny": {"mc_reps": 2, "select_n": 5_000, "select_samples": 1, "cli_n": 2_000},
}
MC_N = 500
POOL_JOBS = 2  # workers of the pooled rounds: one per core of the measuring machine
MC_CELLS = (
    ("design1", "mmse_f"),
    ("design1", "mmse_s"),
    ("design2", "mmse_f"),
    ("design2", "mmse_s"),
)
# call counts fixed by the inputs alone; they must repeat in every traced round of a cell
EXACT_COUNTS = ("local_poly.fit_boundary", "kernels.eval_kernel", "selector.mmse_objective")
LIBRARY_SPANS = tuple(n for n in tr.SPAN_NAMES if not n.startswith(("simlab.", "cli.")))


class Workload:
    """Defaults for a workload whose every round is the same (one cell)."""

    rotation = 1  # rounds in one pass over the cells; a run makes at least one pass
    latencies = ()
    trace_modes = ("plain", "traced")

    def cell(self, k):
        return None

    def library_failures(self, out):
        return 0


class McWorkload(Workload):
    """Monte Carlo cells (design x method) at n=500, run serially; one op is one replication.

    Round k runs one cell, ``MC_CELLS[(seed + k) % 4]``, so a run's cell
    order is a function of its seed.  Set-up runs the first cell on a
    process pool of ``POOL_JOBS`` workers, and the first round, run
    serially, must reproduce that summary bit for bit: the documented
    guarantee.  A cell that runs again, serially or on the pool, must give
    its first summary again.
    """

    expected_spans = LIBRARY_SPANS + ("simlab.draw_sample", "simlab.run_monte_carlo")
    rotation = len(MC_CELLS)
    trace_modes = ("plain", "traced", "pool")

    def __init__(self, seed, size):
        self.seed = seed
        self.reps = size["mc_reps"]
        self.ops_per_round = self.reps
        self.reference = {}  # cell -> summary

    def cell(self, k):
        return MC_CELLS[(self.seed + k) % len(MC_CELLS)]

    def setup(self):
        self.reference = {self.cell(0): self.round("pool", 0)[0]}
        design, method = self.cell(0)  # warm-up of the serial path
        simlab.run_monte_carlo(simlab.DgpSpec(design=design, n=MC_N, seed=self.seed), method, 1)

    def round(self, mode, k):
        design, method = self.cell(k)
        jobs = POOL_JOBS if mode == "pool" else None
        spec = simlab.DgpSpec(design=design, n=MC_N, seed=self.seed)
        return simlab.run_monte_carlo(spec, method, self.reps, jobs=jobs), {}

    def library_failures(self, out):
        return out.reps_failed

    def check(self, out, k):
        cell = self.cell(k)
        stats = (out.h_plus_mean, out.h_minus_mean, out.bias_trimmed, out.rmse_trimmed)
        if out.reps_total != self.reps or not all(math.isfinite(v) for v in stats):
            return [f"{cell[0]}/{cell[1]}: malformed summary"]
        first = self.reference.setdefault(cell, out)
        if out != first:
            return [f"{cell[0]}/{cell[1]}: summary differs from the cell's first summary"]
        return []


def check_analysis(sample, sel, est):
    """Problems with one select-then-estimate result; empty when it is right."""
    problems = []
    pair, coeffs = sel.bandwidths, sel.coefficients
    (lo_p, hi_p), (lo_m, hi_m) = selector.default_bounds(sample)
    inside = lo_p <= pair.h_plus <= hi_p and lo_m <= pair.h_minus <= hi_m
    if not inside:
        problems.append(f"pair ({pair.h_plus:.6g}, {pair.h_minus:.6g}) outside default_bounds")
    if selector.mmse_objective(pair.h_plus, pair.h_minus, coeffs) != pair.objective_value:
        problems.append("objective_value is not mmse_objective at the returned pair")
    try:
        afo = selector.afo_bandwidths(coeffs)
    except RdbwError:
        afo = None
    if (
        afo is not None
        and lo_p <= afo.h_plus <= hi_p
        and lo_m <= afo.h_minus <= hi_m
        and pair.objective_value > afo.objective_value
    ):
        problems.append("objective is worse than at the in-box closed-form pair")
    if not math.isfinite(est.tau):
        problems.append("tau is not finite")
    return problems


class SelectWorkload(Workload):
    """select_bandwidths then frd_estimate on large design1 samples; one op is one analysis."""

    expected_spans = LIBRARY_SPANS
    latencies = ("analysis_ms",)

    def __init__(self, seed, size):
        self.seed = seed
        self.n = size["select_n"]
        self.ops_per_round = size["select_samples"]
        self.samples = []
        self.reference = None
        self.reference_problems = None

    def setup(self):
        for k in range(self.ops_per_round):
            x, y, d = common.design1_arrays(self.seed, self.n, index=k)
            self.samples.append(rdbw.Sample(x=x, y=y, d=d, c=0.0))
        self.reference, _ = self.round("plain", 0)  # also the warm-up
        self.reference_problems = [check_analysis(s, *r) for s, r in zip(self.samples, self.reference)]

    def round(self, mode, k):
        out, analysis_ms = [], []
        for sample in self.samples:
            t0 = perf_counter()
            sel = selector.select_bandwidths(sample)
            est = estimator.frd_estimate(sample, sel.bandwidths.h_plus, sel.bandwidths.h_minus)
            analysis_ms.append(1e3 * (perf_counter() - t0))
            out.append((sel, est))
        return out, {"analysis_ms": analysis_ms}

    def check(self, out, k):
        problems = []
        for k, (got, ref) in enumerate(zip(out, self.reference)):
            if got == ref:
                problems += self.reference_problems[k]
            else:
                problems += [f"sample {k}: result differs from the first run"] + check_analysis(self.samples[k], *got)
        return problems


class CliWorkload(Workload):
    """In-process `dgp-sample` (CSV write) then `select` (CSV read) of that file; one op is the pair.

    Each round writes a new file and removes both files after its timing
    ends.  Rewriting one file in place would make ext4 start writing the
    old blocks back to disk when `dgp-sample` closes it (its
    ``auto_da_alloc`` rule for truncated files), so every round's time
    would include a disk flush whose speed depends on the host's other
    users.
    """

    # `select` estimates nothing, so the estimator layer is not expected here
    expected_spans = tuple(n for n in LIBRARY_SPANS if n != "estimator.frd_estimate") + (
        "simlab.draw_sample",
        "cli.main",
        "cli.load_csv",
    )
    ops_per_round = 1
    latencies = ("cli_select_ms", "cli_dgp_ms")

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.n = size["cli_n"]
        self.work_dir = work_dir
        self.files = 0
        self.reference = None

    def setup(self):
        sample = simlab.draw_sample(simlab.DgpSpec(design="design1", n=self.n, seed=self.seed))
        self.reference = selector.select_bandwidths(sample).bandwidths
        self.round("plain", -1)  # warm-up

    def round(self, mode, k):
        self.files += 1
        csv_path = os.path.join(self.work_dir, f"sample-{self.files}.csv")
        json_path = os.path.join(self.work_dir, f"select-{self.files}.json")
        dgp = ["dgp-sample", "--design", "1", "--n", str(self.n), "--seed", str(self.seed), "--output", csv_path]
        try:
            t0 = perf_counter()
            rc_dgp = cli.main(dgp)
            t1 = perf_counter()
            rc_select = cli.main(["select", "--input", csv_path, "--output", json_path])
            t2 = perf_counter()
            payload = None
            if rc_select == 0:
                with open(json_path, encoding="utf-8") as fh:
                    payload = json.load(fh)
            out = (rc_dgp, rc_select, payload, os.path.getsize(csv_path))
        finally:
            for path in (csv_path, json_path):
                if os.path.exists(path):
                    os.remove(path)
        return out, {"cli_dgp_ms": [1e3 * (t1 - t0)], "cli_select_ms": [1e3 * (t2 - t1)]}

    def check(self, out, k):
        rc_dgp, rc_select, payload, _ = out
        if rc_dgp != 0 or rc_select != 0:
            return [f"exit codes dgp-sample={rc_dgp} select={rc_select}"]
        ref = self.reference
        got = (payload["h_plus"], payload["h_minus"], payload["objective_value"])
        if got != (ref.h_plus, ref.h_minus, ref.objective_value):
            return [f"select on the CSV gave {got}, the library on the in-memory sample {ref}"]
        return []


def make_workload(name, seed, size, work_dir):
    if name == "mc_n500":
        return McWorkload(seed, size)
    if name == "select_n5e5":
        return SelectWorkload(seed, size)
    return CliWorkload(seed, size, work_dir)


@dataclass
class Round:
    mode: str  # "plain", "traced" or "pool"
    k: int  # position in the run; rounds with the same k run the same cell
    cell: object  # the MC cell it ran, None for the other workloads
    wall_s: float
    out: object  # the workload's outputs, None if the round raised
    samples: dict  # latency samples in ms, by name
    error: Optional[str]  # traceback of an exception the round raised
    spans: Optional[list]  # spans of a traced round


def run_round(w, mode, k, tracer, integrity):
    if mode == "traced":
        first = len(tracer.spans)
        tracer.install()
        integrity.update(tracer.leftovers())
    t0 = perf_counter()
    try:
        out, samples = w.round(mode, k)
        error = None
    except Exception:  # the measuring loop must go on; the round counts as failed
        out, samples, error = None, {}, traceback.format_exc(limit=4)
    wall_s = perf_counter() - t0
    spans = None
    if mode == "traced":
        tracer.uninstall()
        integrity.update(tracer.leftovers())
        spans = tracer.spans[first:]
    return Round(mode, k, w.cell(k), wall_s, out, samples, error, spans)


def tally(w, rounds):
    """(problems, failed ops): a round that raised or failed a check loses all its ops."""
    problems, failed = [], 0
    for r in rounds:
        bad = [r.error] if r.error else w.check(r.out, r.k)
        problems += bad
        failed += w.ops_per_round if bad else w.library_failures(r.out)
    return problems, failed


def by_cell(rounds):
    groups = {}
    for r in rounds:
        groups.setdefault(r.cell, []).append(r)
    return groups


def cell_time(rounds):
    """Seconds for one round of each cell: the sum over cells of their median round time.

    Each cell counts once however often it ran, so a run that fits a few
    more rounds of one cell does not shift the cell mix.  The median keeps
    one round stalled by the host (a disk flush, a neighbour's burst) from
    moving a run that holds only a few rounds of a cell.
    """
    return sum(statistics.median(r.wall_s for r in g) for g in by_cell(rounds).values())


def tail(values):
    """(percentile, value, count beyond): the highest of p99..p50 with >= 10 values beyond it."""
    for p in (99, 95, 90, 75, 50):
        q = float(np.percentile(values, p))
        beyond = sum(v > q for v in values)
        if beyond >= 10:
            return p, q, beyond
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w, plain, failed, attempted):
    """The gated metrics, and the planned per-workload figures as (value, unit, better[, note])."""
    metrics = {
        "ops_per_s": w.ops_per_round * len(by_cell(plain)) / cell_time(plain),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    named = {"failed_frac": (failed / attempted, "frac", "lower")}
    if isinstance(w, McWorkload):
        named["reps_per_s"] = (metrics["ops_per_s"], "1/s", "higher")
    for key in w.latencies:
        vals = [v for r in plain if r.error is None for v in r.samples[key]]
        named[f"{key}_p50"] = (statistics.median(vals), "ms", "lower", f"median of {len(vals)}")
        t = tail(vals)
        if t is not None:
            named[f"{key}_tail"] = (t[1], "ms", "lower", f"p{t[0]} of {len(vals)}, {t[2]} beyond")
    return metrics, named


def per_layer(w, rounds, problems):
    """Per-layer metrics per operation; each cell weighs the same, as in `cell_time`."""
    traced = [r for r in rounds if r.mode == "traced"]
    spans = [s for r in traced for s in r.spans]
    cells = by_cell(traced).values()
    cell_aggs = [(tr.aggregate([s for r in g for s in r.spans]), w.ops_per_round * len(g)) for g in cells]
    metrics = {}
    for name in tr.SPAN_NAMES:
        for kind, i, scale in (("calls", 0, 1.0), ("ms", 1, 1e3), ("self_ms", 2, 1e3)):
            metrics[f"{name}.{kind}"] = statistics.fmean(
                scale * agg.get(name, (0, 0.0, 0.0))[i] / ops for agg, ops in cell_aggs
            )

    agg = tr.aggregate(spans)
    missed = [n for n in w.expected_spans if n not in agg]
    if missed:
        problems.append(f"wrapped functions never hit: {missed}")
    exact = dict.fromkeys(EXACT_COUNTS, 0.0)
    for g in cells:
        per_round = [tr.counts(r.spans) for r in g]
        for name in EXACT_COUNTS:
            seen = {c.get(name, 0) for c in per_round}
            if len(seen) > 1:
                problems.append(f"{name} calls differ between identical traced rounds: {sorted(seen)}")
            exact[name] += per_round[0].get(name, 0) / w.ops_per_round / len(cells)

    plain = [r for r in rounds if r.mode == "plain"]
    metrics["trace.overhead_frac"] = cell_time(traced) / cell_time(plain) - 1.0
    pool = [r for r in rounds if r.mode == "pool"]
    metrics["simlab.pool.speedup"] = cell_time(plain) / cell_time(pool) if pool else 0.0
    load = agg.get("cli.load_csv")
    if load:
        rows = load[0] * w.n
        nbytes = sum(r.out[3] for r in traced if r.out is not None)
        metrics["cli.load_csv.rows_per_s"] = rows / load[1]
        metrics["cli.load_csv.mb_per_s"] = nbytes / 1e6 / load[1]
    else:
        metrics["cli.load_csv.rows_per_s"] = 0.0
        metrics["cli.load_csv.mb_per_s"] = 0.0
    return metrics, spans, exact


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    os.makedirs(common.OUT, exist_ok=True)
    scratch = os.path.join(common.OUT, f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        record = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))


def measure(args, scratch):
    size = SIZES["tiny" if args.tiny else "full"]
    w = make_workload(args.workload, args.seed, size, scratch)
    w.setup()

    traced = bool(args.trace)
    tracer = tr.Tracer() if traced else None
    modes = w.trace_modes if traced else ("plain",)
    integrity = set()
    rounds = []
    k = 0
    start = perf_counter()
    while k < w.rotation or perf_counter() - start < args.seconds:
        for mode in modes:
            rounds.append(run_round(w, mode, k, tracer, integrity))
        k += 1

    problems, failed = tally(w, rounds)
    problems = sorted(integrity) + problems
    attempted = w.ops_per_round * len(rounds)

    plain = [r for r in rounds if r.mode == "plain"]
    detail = {
        "rounds": {m: sum(r.mode == m for r in rounds) for m in modes},
        "ops_per_round": w.ops_per_round,
        "plain_round_s": [r.wall_s for r in plain],
    }
    if w.rotation > 1:
        detail["plain_rounds_per_cell"] = {"/".join(c): len(g) for c, g in by_cell(plain).items()}
    if traced:
        metrics, spans, detail["exact_counts_per_op"] = per_layer(w, rounds, problems)
        spans_path = os.path.join(common.OUT, f"spans-{args.workload}.tsv")
        tr.write_spans(spans, spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, common.ROOT)
        named = {}
    else:
        metrics, named = end_to_end(w, plain, failed, attempted)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "named": named,
        "detail": detail,
        "problems": problems[:20],
        "provenance": common.provenance(args.workload, args.seed),
    }


if __name__ == "__main__":
    main()
