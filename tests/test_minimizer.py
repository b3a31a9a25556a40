"""Gates on the criterion minimizer: a frozen corpus of real coefficient
sets, unit equivariance, and replications that once stalled the polish."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rdbw import selector
from rdbw.errors import DegenerateObjective, RdbwError
from rdbw.local_poly import Sample
from rdbw.selector import (
    AmseCoefficients,
    _coordinate_best,
    _criterion,
    afo_bandwidths,
    default_bounds,
    minimize_mmse,
    mmse_objective,
    select_bandwidths,
)
from rdbw.simlab import DgpSpec, draw_sample

CORPUS = json.loads((Path(__file__).parent / "data" / "minimizer_corpus.json").read_text())["sets"]


def _problem(entry):
    return AmseCoefficients(**entry["coefficients"]), tuple(map(tuple, entry["bounds"]))


def _in_box(h_plus, h_minus, bounds):
    (lo_p, hi_p), (lo_m, hi_m) = bounds
    return lo_p <= h_plus <= hi_p and lo_m <= h_minus <= hi_m


def test_corpus_holds_four_cells_of_150():
    cells = {(e["design"], e["method"]) for e in CORPUS}
    assert len(CORPUS) == 600 and len(cells) == 4


def test_never_worse_than_frozen_corpus():
    # the corpus values came from the grid plus Nelder-Mead polish
    worse = []
    for entry in CORPUS:
        coeffs, bounds = _problem(entry)
        pair = minimize_mmse(coeffs, bounds)
        assert _in_box(pair.h_plus, pair.h_minus, bounds)
        assert pair.objective_value == mmse_objective(pair.h_plus, pair.h_minus, coeffs)
        if pair.objective_value > entry["objective_value"] * (1.0 + 1e-10):
            worse.append((entry["design"], entry["method"], entry["rep"]))
    assert not worse


def test_never_worse_than_in_box_afo_pair():
    checked = 0
    for entry in CORPUS:
        coeffs, bounds = _problem(entry)
        try:
            afo = afo_bandwidths(coeffs)
        except RdbwError:
            continue
        if not _in_box(afo.h_plus, afo.h_minus, bounds):
            continue
        checked += 1
        assert minimize_mmse(coeffs, bounds).objective_value <= afo.objective_value
    assert checked > 100


def test_per_coordinate_solve_matches_a_dense_line_scan():
    # with one bandwidth held, the box ends and the real roots of the
    # degree-7 stationarity polynomial must contain the best point
    rng = np.random.default_rng(7)
    for entry in CORPUS[::15]:
        coeffs, bounds = _problem(entry)
        h = (float(rng.uniform(*bounds[0])), float(rng.uniform(*bounds[1])))
        for side in (0, 1):
            line = np.geomspace(*bounds[side], 20001)
            if side == 0:
                scan = _criterion(coeffs, line, h[1])
            else:
                scan = _criterion(coeffs, h[0], line)
            best_h, best_v = _coordinate_best(coeffs, h, side, bounds)
            assert best_h[1 - side] == h[1 - side]
            assert best_v <= scan.min() * (1.0 + 1e-12)
            assert best_v == mmse_objective(best_h[0], best_h[1], coeffs)


def reference_coordinate_best(c, h, side, bounds):
    # the one-row check with one np.roots call and one mmse_objective per candidate
    if side == 0:
        phi, psi, omega = c.phi_plus, c.psi_plus, c.omega_plus
        a, b = c.phi_minus * h[1] ** 2, c.psi_minus * h[1] ** 3
    else:
        phi, psi, omega = c.phi_minus, c.psi_minus, c.omega_minus
        a, b = c.phi_plus * h[0] ** 2, c.psi_plus * h[0] ** 3
    s = h[side]
    q, r = phi * s**2, psi * s**3
    roots = np.roots([6.0 * r * r, 0.0, 4.0 * q * q, -6.0 * r * b, -4.0 * q * a, 0.0, 0.0,
                      -c.v * omega / (c.n * c.f * s)])
    lo, hi = bounds[side]
    candidates = [lo, hi]
    for t in roots:
        hc = s * t.real
        if abs(t.imag) <= 1e-8 * abs(t) and lo < hc < hi:
            candidates.append(hc)
    best_h, best_v = None, math.inf
    for hc in candidates:
        pair = (hc, h[1]) if side == 0 else (h[0], hc)
        v = mmse_objective(pair[0], pair[1], c)
        if v < best_v:
            best_h, best_v = pair, v
    return best_h, best_v


def stacked_check(rows, side):
    """The stacked check on a list of (coeffs, h, bounds) rows."""
    coeffs, points, boxes = zip(*rows)
    bounds = tuple((np.array([b[i][0] for b in boxes]), np.array([b[i][1] for b in boxes])) for i in (0, 1))
    return _coordinate_best(coeffs, np.array(points, dtype=float), side, bounds)


@pytest.mark.parametrize("side", [0, 1])
def test_stacked_check_equals_the_one_row_call_and_np_roots(side):
    # at two random points and at the optimum of every corpus set, in one stack
    rng = np.random.default_rng(11)
    rows = []
    for entry in CORPUS:
        coeffs, bounds = _problem(entry)
        pair = minimize_mmse(coeffs, bounds)
        rows.append((coeffs, (pair.h_plus, pair.h_minus), bounds))
        for _ in range(2):
            rows.append((coeffs, (float(rng.uniform(*bounds[0])), float(rng.uniform(*bounds[1]))), bounds))
    pairs, values, errors = stacked_check(rows, side)
    assert errors == [None] * len(rows)
    for r, (c, h, bounds) in enumerate(rows):
        best_h, best_v = _coordinate_best(c, h, side, bounds)
        assert tuple(pairs[r]) == best_h and values[r] == best_v
        assert (best_h, best_v) == reference_coordinate_best(c, h, side, bounds)


@pytest.mark.parametrize("side", [0, 1])
def test_stacked_check_strips_degrees_and_fails_a_non_finite_row_alone(side):
    coeffs, bounds = _problem(CORPUS[0])
    solved = ("plus", "minus")[side]
    h = tuple(math.sqrt(lo * hi) for lo, hi in bounds)
    variants = [
        {},
        {f"psi_{solved}": 0.0},  # degree 5
        {f"omega_{solved}": 0.0},  # zero constant term: degree 4 once stripped
        {f"phi_{solved}": 0.0, f"psi_{solved}": 0.0},  # a constant: no roots
        {f"omega_{solved}": math.inf},  # not finite
        {f"psi_{solved}": 0.0},
    ]
    rows = [(replace(coeffs, **v), h, bounds) for v in variants]
    pairs, values, errors = stacked_check(rows, side)
    with pytest.raises(np.linalg.LinAlgError) as single:
        _coordinate_best(rows[4][0], h, side, bounds)
    with pytest.raises(np.linalg.LinAlgError) as reference:
        reference_coordinate_best(rows[4][0], h, side, bounds)
    assert type(errors[4]) is np.linalg.LinAlgError
    assert str(errors[4]) == str(single.value) == str(reference.value)
    for r, (c, _, _) in enumerate(rows):
        if r != 4:
            assert errors[r] is None
            want = reference_coordinate_best(c, h, side, bounds)
            assert (tuple(pairs[r]), values[r]) == _coordinate_best(c, h, side, bounds) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_criterion_that_is_nan_on_the_whole_grid_is_a_typed_error():
    coeffs, bounds = _problem(CORPUS[0])
    with pytest.raises(DegenerateObjective, match="not a number anywhere"):
        minimize_mmse(replace(coeffs, phi_plus=math.nan), bounds)
    # x in units of 1e-110: the squared bias terms overflow on the whole grid
    sample = draw_sample(DgpSpec("design1", 500, seed=1), 0)
    with pytest.raises(DegenerateObjective, match="not a number anywhere"):
        select_bandwidths(Sample(sample.x * 1e-110, sample.y, sample.d, 0.0))


@pytest.mark.parametrize("a", [1e-6, 1e-3, 10.0, 1e4, 1e6])
def test_unit_equivariance(a):
    # x -> a x maps phi -> phi / a^2, psi -> psi / a^3, f -> f / a and the
    # bounds -> a bounds; the criterion is unchanged in value, so the pair
    # must scale by a
    for entry in CORPUS:
        coeffs, bounds = _problem(entry)
        base = minimize_mmse(coeffs, bounds)
        c = dict(entry["coefficients"])
        c["phi_plus"] /= a**2
        c["phi_minus"] /= a**2
        c["psi_plus"] /= a**3
        c["psi_minus"] /= a**3
        c["f"] /= a
        scaled_bounds = tuple((a * lo, a * hi) for lo, hi in bounds)
        scaled = minimize_mmse(AmseCoefficients(**c), scaled_bounds)
        assert scaled.h_plus == pytest.approx(a * base.h_plus, rel=1e-7)
        assert scaled.h_minus == pytest.approx(a * base.h_minus, rel=1e-7)
        assert scaled.objective_value == pytest.approx(base.objective_value, rel=1e-12)
        assert scaled.regime == base.regime


@pytest.mark.parametrize(
    "seed, rep, objective",
    [(110, 6, 0.5815884693354022), (110, 15, 0.7117483461814209), (210, 19, 0.5370200470003935)],
)
def test_replications_that_stalled_the_simplex_polish(seed, rep, objective):
    # design1 sharp-mode samples on which the Nelder-Mead polish ran to its
    # 4000-iteration cap (about 15,900 evaluations); the objective is the
    # value it reached
    sample = draw_sample(DgpSpec("design1", 500, seed=seed), rep)
    pair = select_bandwidths(sample, mode="sharp").bandwidths
    assert pair.objective_value <= objective * (1.0 + 1e-10)
    assert _in_box(pair.h_plus, pair.h_minus, default_bounds(sample))


def test_grid_minima_along_one_valley_share_a_newton_run(monkeypatch):
    # same-sign phi with psi = 0: the first-order bias cancels along a
    # straight valley in log-bandwidth, and the grid aliases that valley
    # into 12 local minima, all descending to one point
    coeffs = AmseCoefficients(
        phi_plus=2.2185366660897485, phi_minus=0.13003545810999959, psi_plus=0.0, psi_minus=0.0,
        omega_plus=0.0011477444517484863, omega_minus=0.019652011995867268, v=4.8,
        f=2.1815140996716904, tauD=0.5, n=2426,
    )
    bounds = ((0.009989506079307913, 0.39835153720642036), (0.0027062410987643204, 2.30838112865733))
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[1])
        return newton(*args, **kwargs)

    newton = selector._newton
    monkeypatch.setattr(selector, "_newton", counted)
    pair = minimize_mmse(coeffs, bounds)
    assert len(runs) <= 3
    # the value every start reaches
    assert pair.objective_value == pytest.approx(1.3445677341231429e-05, rel=1e-12)
