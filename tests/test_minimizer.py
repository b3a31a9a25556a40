"""Gates on the criterion minimizer: a frozen corpus of real coefficient
sets, unit equivariance, and replications that once stalled the polish."""

import json
from pathlib import Path

import numpy as np
import pytest

from rdbw import selector
from rdbw.errors import RdbwError
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
