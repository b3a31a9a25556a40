"""Gates on the criterion minimizer: a frozen corpus of real coefficient
sets, a brute-force profile over the corpus and a fuzz, unit equivariance,
and replications that once stalled the polish."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rdbw.errors import DegenerateObjective, RdbwError
from rdbw import selector
from rdbw.local_poly import Sample
from rdbw.selector import (
    _REFINE_MAXITER,
    PROFILE_NODES,
    AmseCoefficients,
    _profile,
    _unit_free,
    afo_bandwidths,
    default_bounds,
    minimize_mmse,
    mmse_objective,
    select_bandwidths,
)
from rdbw.simlab import DgpSpec, draw_sample
from test_equivariance import _fuzzed_sample

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


def test_a_criterion_that_is_nan_on_the_whole_grid_is_a_typed_error():
    coeffs, bounds = _problem(CORPUS[0])
    with pytest.raises(DegenerateObjective, match="not a number anywhere on the profile"):
        minimize_mmse(replace(coeffs, phi_plus=math.nan), bounds)
    # x in units of 1e-110: the squared bias terms overflow on the whole grid
    sample = draw_sample(DgpSpec("design1", 500, seed=1), 0)
    with pytest.raises(DegenerateObjective, match="not a number anywhere on the profile"):
        select_bandwidths(Sample(sample.x * 1e-110, sample.y, sample.d, 0.0))


def test_a_criterion_beyond_the_floats_at_the_selected_pair_is_a_typed_error():
    # x in units of 1e104: on rep 1 the criterion overflows at the selected
    # pair, and on rep 0 it is not a number on the whole profile; its powers
    # once raised a bare OverflowError on one sample and on a stack
    for rep, message in ((1, "not finite at the selected pair"), (0, "not a number anywhere on the profile")):
        sample = draw_sample(DgpSpec("design1", 500, seed=1), rep)
        far = Sample(sample.x * 1e104, sample.y, sample.d, 0.0)
        with pytest.raises(DegenerateObjective, match=message):
            select_bandwidths(far)
        _, errors = select_bandwidths(far.as_stack())
        assert isinstance(errors[0], DegenerateObjective) and message in str(errors[0])


@pytest.mark.parametrize("scale", [1e-102, 1e-105, 1e-110])
def test_x_in_units_below_1e_100_fails_with_a_typed_error_alone(scale):
    # the psi pilots scale as a^-3 and overflow; under the tests' warnings as
    # errors a RuntimeWarning from the pilots or the coefficients once escaped
    spec = DgpSpec("design1", 500, seed=1)
    sample = draw_sample(spec, 0)
    stack = draw_sample(spec, range(4))
    x = stack.x.copy()
    x[0] *= scale
    for mode in ("fuzzy", "sharp"):
        with pytest.raises(DegenerateObjective):
            select_bandwidths(Sample(sample.x * scale, sample.y, sample.d, 0.0), mode=mode)
        _, errors = select_bandwidths(Sample(x, stack.y, stack.d, 0.0), mode=mode)
        assert isinstance(errors[0], DegenerateObjective) and errors[1:] == [None] * 3


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


def test_grid_minima_along_one_valley_share_a_newton_run():
    # same-sign phi with psi = 0: the first-order bias cancels along a
    # straight valley in log-bandwidth, which a 60 x 60 grid aliased into
    # 12 local minima; the valley is the ray where A = 0, one node of the
    # profile, and the minimum lies on h_plus's upper bound next to it
    coeffs = AmseCoefficients(
        phi_plus=2.2185366660897485, phi_minus=0.13003545810999959, psi_plus=0.0, psi_minus=0.0,
        omega_plus=0.0011477444517484863, omega_minus=0.019652011995867268, v=4.8,
        f=2.1815140996716904, tauD=0.5, n=2426,
    )
    bounds = ((0.009989506079307913, 0.39835153720642036), (0.0027062410987643204, 2.30838112865733))
    pair = minimize_mmse(coeffs, bounds)
    assert pair.h_plus == bounds[0][1]
    assert pair.h_minus / pair.h_plus == pytest.approx(math.sqrt(coeffs.phi_plus / coeffs.phi_minus), rel=1e-4)
    # the value every grid start reached
    assert pair.objective_value == pytest.approx(1.3445677341231429e-05, rel=1e-12)


FIELDS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus", "omega_plus", "omega_minus", "v", "f", "n")


def profile_brute_force(coeffs, boxes, nodes=20_000, rays=None):
    """Least criterion value on `nodes` log-spaced rays h_minus = lam h_plus.

    On a ray the criterion is A h^4 + B h^6 + K C / h in h = h_plus, with
    one minimum where 6 B h^7 + 4 A h^5 = K C; Newton on that polynomial,
    from the smaller one-term root (above the root), finds it, and it is
    clipped to the ray's part of the box.  rays gives (lam_lo, lam_hi) per
    set; by default every ray that crosses the box.
    """
    c = {k: np.array([getattr(s, k) for s in coeffs], dtype=float)[:, None] for k in FIELDS}
    (lo_p, hi_p), (lo_m, hi_m) = (np.array([b[i] for b in boxes]).T[:, :, None] for i in (0, 1))
    ends = rays if rays is not None else (lo_m[:, 0] / hi_p[:, 0], hi_m[:, 0] / lo_p[:, 0])
    lam = np.geomspace(*ends, nodes, axis=1)
    lam2 = lam * lam
    big_a = c["phi_plus"] - c["phi_minus"] * lam2
    big_a *= big_a
    big_b = c["psi_plus"] - c["psi_minus"] * (lam2 * lam)
    big_b *= big_b
    kc = c["v"] / (c["n"] * c["f"]) * (c["omega_plus"] + c["omega_minus"] / lam)
    lower, upper = np.maximum(lo_p, lo_m / lam), np.minimum(hi_p, hi_m / lam)
    with np.errstate(divide="ignore"):
        log_kc = np.log(kc)
        start = np.minimum((log_kc - np.log(4.0 * big_a)) / 5.0, (log_kc - np.log(6.0 * big_b)) / 7.0)
    h = np.minimum(upper, np.exp(start))
    for _ in range(6):
        h2 = h * h
        h4 = h2 * h2
        h = h - (h4 * h * (6.0 * big_b * h2 + 4.0 * big_a) - kc) / (h4 * (42.0 * big_b * h2 + 20.0 * big_a))
    h = np.minimum(np.maximum(h, lower), upper)
    h2 = h * h
    return (h2 * h2 * (big_a + big_b * h2) + kc / h).min(axis=1)


def fuzz_sets(count, seed):
    """Random signs and log-uniform magnitudes; a third of the sets have
    same-sign phi, a fifth psi_+ = psi_- = 0, and each side's box spans
    1 to 3 decades."""
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(count):
        mag = lambda: float(10.0 ** rng.uniform(-2.0, 2.0))  # noqa: E731
        sign = lambda: float(rng.choice([-1.0, 1.0]))  # noqa: E731
        phi_plus = sign() * mag()
        phi_minus = (1.0 if i % 3 == 0 else -1.0) * math.copysign(mag(), phi_plus)
        psi = (0.0, 0.0) if i % 5 == 0 else (sign() * mag(), sign() * mag())
        coeffs = AmseCoefficients(
            phi_plus=phi_plus, phi_minus=phi_minus, psi_plus=psi[0], psi_minus=psi[1],
            omega_plus=mag(), omega_minus=mag(), v=4.8, f=math.sqrt(mag()), tauD=1.0,
            n=int(rng.integers(200, 5000)),
        )
        box = []
        for _ in range(2):
            lo = float(10.0 ** rng.uniform(-3.0, -1.0))
            box.append((lo, lo * float(10.0 ** rng.uniform(1.0, 3.0))))
        sets.append((coeffs, tuple(box)))
    return sets


def stacked_problem(sets):
    """(coefficients, bounds) of (R,) arrays from R (coefficients, bounds) pairs."""
    coeffs, boxes = zip(*sets)
    stack = AmseCoefficients(
        **{f.name: np.array([getattr(c, f.name) for c in coeffs]) for f in fields(AmseCoefficients)}
    )
    return stack, tuple((np.array([b[i][0] for b in boxes]), np.array([b[i][1] for b in boxes])) for i in (0, 1))


def assert_never_above_brute_force(sets):
    coeffs, boxes = zip(*sets)
    pair, errors = minimize_mmse(*stacked_problem(sets))
    assert errors == [None] * len(sets)
    value = pair.objective_value
    brute = np.concatenate([profile_brute_force(coeffs[i:i + 50], boxes[i:i + 50]) for i in range(0, len(sets), 50)])
    above = np.flatnonzero(value > brute * (1.0 + 1e-12))
    assert not above.size, [(int(i), value[i] / brute[i] - 1.0) for i in above[:5]]


def test_never_above_the_brute_force_profile_on_the_corpus():
    assert_never_above_brute_force([_problem(entry) for entry in CORPUS])


def test_never_above_the_brute_force_profile_on_a_fuzz():
    assert_never_above_brute_force(fuzz_sets(3000, seed=20150921))


def test_a_minimum_in_the_last_node_interval_next_to_a_box_corner():
    # the optimum runs along h_minus's upper bound to within 2% of a node
    # step of the corner (lo_plus, hi_minus), the last ray of the profile
    coeffs = AmseCoefficients(
        phi_plus=-0.1509219415921617, phi_minus=-21.34264792250359, psi_plus=16.555435530085095,
        psi_minus=-63.0525394896345, omega_plus=0.032162112591302826, omega_minus=87.21869211220664,
        v=4.8, f=8.286718340365622, tauD=1.0, n=2860,
    )
    bounds = ((0.0621030861712312, 1.6273506787288519), (0.001837583182248981, 0.03701157835900613))
    pair = minimize_mmse(coeffs, bounds)
    (lo_p, hi_p), (lo_m, hi_m) = bounds
    assert pair.h_minus == hi_m and lo_p < pair.h_plus < lo_p * 1.01
    last = hi_m / lo_p
    step = (last / (lo_m / hi_p)) ** (1.0 / 63.0)
    assert last / step < pair.h_minus / pair.h_plus < last
    brute = profile_brute_force([coeffs], [bounds], rays=(np.array([last / step]), np.array([last])))
    assert pair.objective_value <= brute[0] * (1.0 + 1e-12)


def test_a_minimum_at_a_box_corner_is_the_corner_exactly():
    # both bandwidths want to be far above the box, so the optimum is the
    # corner (hi_plus, hi_minus): a kink of the profile, where its slope
    # is negative just below and positive just above
    coeffs = AmseCoefficients(
        phi_plus=1.0, phi_minus=-1.0, psi_plus=0.5, psi_minus=0.5, omega_plus=1.0,
        omega_minus=1.0, v=4.8, f=1.0, tauD=0.5, n=500,
    )
    for bounds in (((0.001, 0.01), (0.001, 0.01)), ((0.001, 0.01), (0.002, 0.05))):
        pair = minimize_mmse(coeffs, bounds)
        assert (pair.h_plus, pair.h_minus) == (bounds[0][1], bounds[1][1])
        assert pair.regime == "boundary_clamped"


def test_a_minimum_just_inside_the_clipped_region_at_a_clip_transition():
    # on the optimal ray the inner optimum lies 1e-5 (in log h) below
    # h_minus's lower bound: the profile's curvature jumps just beside it
    coeffs = AmseCoefficients(
        phi_plus=0.17203538573188215, phi_minus=0.048269892677383464, psi_plus=-10.083707657865364,
        psi_minus=0.6152766522325668, omega_plus=7.740783397328165, omega_minus=0.015192315024960424,
        v=4.8, f=9.345467693294735, tauD=1.0, n=2476,
    )
    bounds = ((0.06042264759587569, 37.54065611122276), (0.06918256926681904, 14.57699237590729))
    pair = minimize_mmse(coeffs, bounds)
    (lo_p, hi_p), (lo_m, hi_m) = bounds
    assert pair.h_minus == lo_m and lo_p < pair.h_plus < hi_p
    lam = pair.h_minus / pair.h_plus
    brute = profile_brute_force([coeffs], [bounds], rays=(np.array([lam / 1.01]), np.array([lam * 1.01])))
    assert pair.objective_value <= brute[0] * (1.0 + 1e-12)


def _on_a_bound(pairs, bounds):
    (lo_p, hi_p), (lo_m, hi_m) = bounds
    return (pairs.h_plus == lo_p) | (pairs.h_plus == hi_p) | (pairs.h_minus == lo_m) | (pairs.h_minus == hi_m)


def test_a_pair_is_labelled_clamped_exactly_when_it_sits_on_a_bound():
    # the label is the profile's own clipping at the winning ray: it must
    # agree with the pair itself, on the corpus, the selection fuzz and one
    # Monte Carlo block per design and mode
    labelled, on_bound = [], []
    pairs, errors = minimize_mmse(*stacked_problem([_problem(entry) for entry in CORPUS]))
    assert errors == [None] * len(CORPUS)
    labelled.append(pairs.regime == "boundary_clamped")
    on_bound.append(_on_a_bound(pairs, stacked_problem([_problem(entry) for entry in CORPUS])[1]))
    rng = np.random.default_rng(20150921)
    for _ in range(300):
        sample = _fuzzed_sample(rng)
        for mode in ("fuzzy", "sharp") if sample is not None else ():
            try:
                pair = select_bandwidths(sample, mode=mode).bandwidths
            except RdbwError:
                continue
            labelled.append([pair.regime == "boundary_clamped"])
            on_bound.append([_on_a_bound(pair, default_bounds(sample))])
    for design in ("design1", "design2"):
        stack = draw_sample(DgpSpec(design, 500, seed=42), range(131))
        bounds = default_bounds(stack)[0]
        for mode in ("fuzzy", "sharp"):
            sel, errors = select_bandwidths(stack, mode=mode)
            ok = np.array([e is None for e in errors])
            labelled.append((sel.bandwidths.regime == "boundary_clamped")[ok])
            on_bound.append(_on_a_bound(sel.bandwidths, bounds)[ok])
    labelled, on_bound = np.concatenate(labelled), np.concatenate(on_bound)
    assert len(labelled) > 1600 and 0 < labelled.sum() < len(labelled)
    np.testing.assert_array_equal(labelled, on_bound)


@pytest.mark.parametrize("source", ["corpus", "fuzz"])
def test_the_slope_below_a_ray_differs_from_the_slope_above_only_at_the_corners(source):
    # below a corner ray the other bound clips the rays: the profile's
    # slope there is its slope a float below the corner, and at every other
    # node the slope above
    sets = [_problem(entry) for entry in CORPUS] if source == "corpus" else fuzz_sets(3000, seed=20150921)
    prob = _unit_free(*stacked_problem(sets))
    first, last = prob.w_lo - prob.u_hi, prob.w_hi - prob.u_lo
    corners = np.hstack((prob.w_lo - prob.u_lo, prob.w_hi - prob.u_hi))
    with np.errstate(all="ignore"):
        analytic = np.hstack((0.5 * np.log(prob.p_plus / prob.p_minus), np.log(prob.q_plus / prob.q_minus) / 3.0))
        others = np.hstack((np.linspace(first[:, 0], last[:, 0], PROFILE_NODES, axis=1),
                            np.where((first < analytic) & (analytic < last), analytic, np.nan)))
        inside, at, just_below = (_profile(prob, ell) for ell in (others, corners, np.nextafter(corners, -np.inf)))
    np.testing.assert_array_equal(inside.below, inside.slope)
    scale = np.nanmax(np.abs(np.hstack((inside.slope, at.slope))), axis=1, keepdims=True)
    assert np.all(np.abs(at.below - just_below.slope) <= 1e-12 * scale)
    assert np.array_equal(np.sign(at.below), np.sign(just_below.slope))
    if source == "fuzz":
        # no corpus problem is clipped at a corner; in the fuzz, some corners are kinks
        assert np.count_nonzero(np.sign(at.below) != np.sign(at.slope)) > 100


@pytest.mark.parametrize("source", ["corpus", "fuzz"])
def test_the_refinement_stops_on_its_own(monkeypatch, source):
    # every bracket ends on its step or its slope, not on the iteration cap:
    # the secant steps take 9 profiles on the corpus and 19 on the fuzz
    sets = [_problem(entry) for entry in CORPUS] if source == "corpus" else fuzz_sets(3000, seed=20150921)
    profile, refine, calls = selector._profile, selector._refine, []

    def counted(*args):
        monkeypatch.setattr(selector, "_profile", lambda *a: calls.append(a) or profile(*a))
        try:
            return refine(*args)
        finally:
            monkeypatch.setattr(selector, "_profile", profile)

    monkeypatch.setattr(selector, "_refine", counted)
    minimize_mmse(*stacked_problem(sets))
    assert 0 < len(calls) <= _REFINE_MAXITER
