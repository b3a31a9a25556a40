"""Unit equivariance of select-then-estimate, and estimation at a selected pair.

Rescaling x by a (cutoff included) must rescale both selected bandwidths
by a and leave the estimate unchanged; rescaling y by b must leave the
bandwidths unchanged and rescale the estimate by b.  Once selection
succeeds, estimation at its pair must not fail for a rank reason, which
the lower bandwidth bounds exist to rule out.
"""

import numpy as np
import pytest

from rdbw.errors import DegenerateObjective, DegenerateSample, RdbwError, SingularDesign
from rdbw.estimator import frd_estimate
from rdbw.local_poly import Sample
from rdbw.selector import select_bandwidths
from rdbw.simlab import DgpSpec, draw_sample

SCALES = (1e-90, 1e-6, 1e-3, 10.0, 1e4, 1e6, 1e90)
# y alone may go much further: its powers never meet the bandwidths'
Y_SCALES = SCALES + (1e-150, 1e-120, 1e120, 1e150)
REPS = 25
RTOL = 1e-8


def _analysis(sample):
    pair = select_bandwidths(sample).bandwidths
    return pair.h_plus, pair.h_minus, frd_estimate(sample, pair.h_plus, pair.h_minus).tau, pair.regime


@pytest.fixture(scope="module", params=("design1", "design2"))
def draws(request):
    out = []
    for rep in range(REPS):
        sample = draw_sample(DgpSpec(design=request.param, n=500, seed=42), rep)
        out.append((sample, _analysis(sample)))
    return out


def test_bandwidths_scale_with_x_and_tau_does_not_move(draws):
    worst_h = worst_tau = 0.0
    moved = []
    for sample, (h_plus, h_minus, tau, regime) in draws:
        for a in SCALES:
            hp, hm, t, r = _analysis(Sample(x=a * sample.x, y=sample.y, d=sample.d, c=a * sample.c))
            worst_h = max(worst_h, abs(hp / (a * h_plus) - 1.0), abs(hm / (a * h_minus) - 1.0))
            worst_tau = max(worst_tau, abs(t / tau - 1.0))
            if r != regime:
                moved.append((a, regime, r))
    assert worst_h < RTOL
    assert worst_tau < RTOL
    # the regime too: the product of the phi underflows at x in units of 1e-90
    assert not moved


def test_tau_scales_with_y_and_bandwidths_do_not_move(draws):
    worst_h = worst_tau = 0.0
    for sample, (h_plus, h_minus, tau, _) in draws:
        for b in Y_SCALES:
            hp, hm, t, _ = _analysis(Sample(x=sample.x, y=b * sample.y, d=sample.d, c=sample.c))
            worst_h = max(worst_h, abs(hp / h_plus - 1.0), abs(hm / h_minus - 1.0))
            worst_tau = max(worst_tau, abs(t / (b * tau) - 1.0))
    assert worst_h < RTOL
    assert worst_tau < RTOL


def _fuzzed_sample(rng):
    n = int(rng.integers(12, 600))
    kind = int(rng.integers(4))
    if kind == 0:
        u = 2.0 * rng.beta(2.0, 4.0, n) - 1.0
    elif kind == 1:
        u = rng.standard_cauchy(n)
    elif kind == 2:
        # a rounded running variable: ties everywhere, the cutoff on a support point
        u = np.round(rng.uniform(-1.0, 1.0, n), int(rng.integers(1, 4)))
    else:
        u = rng.uniform(-1.0, 1.0, n)
    x = 10.0 ** rng.uniform(-12.0, 6.0) * u
    d = (rng.uniform(size=n) < np.where(u >= 0.0, 0.85, 0.15)).astype(float)
    t = np.tanh(u)
    y = rng.normal(0.0, 30.0, 3) @ np.vstack([t, t * t, t**3]) + d
    y = y + rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 0.0), n)
    if not (np.any(x >= 0.0) and np.any(x < 0.0)):
        return None
    return Sample(x=x, y=y, d=d, c=0.0)


def test_estimation_at_a_selected_pair_is_never_singular():
    rng = np.random.default_rng(20150921)
    selected = 0
    singular = []
    for case in range(300):
        sample = _fuzzed_sample(rng)
        if sample is None:
            continue
        for mode in ("fuzzy", "sharp"):
            try:
                pair = select_bandwidths(sample, mode=mode).bandwidths
            except RdbwError:
                continue
            selected += 1
            try:
                frd_estimate(sample, pair.h_plus, pair.h_minus)
            except SingularDesign:
                singular.append((case, mode))
            except RdbwError:
                pass
    assert selected > 300
    assert not singular


@pytest.fixture(scope="module")
def unit_stacks():
    # ten samples: designs 1 and 2, reps 0-4, as one stack each
    return [draw_sample(DgpSpec(design=design, n=500, seed=42), range(5)) for design in ("design1", "design2")]


def _outcomes(stack):
    """Each slice's selection, alone and as a slice of the stack: a pair or
    an error.  Under the tests' warnings as errors, a numpy warning fails."""
    alone = []
    for r in range(len(stack.x)):
        try:
            pair = select_bandwidths(Sample(stack.x[r], stack.y[r], stack.d[r], stack.c)).bandwidths
            alone.append((pair.h_plus, pair.h_minus))
        except RdbwError as e:
            alone.append(e)
    sel, errors = select_bandwidths(stack)
    pairs = sel.bandwidths
    together = [e or (pairs.h_plus[r], pairs.h_minus[r]) for r, e in enumerate(errors)]
    return alone, together


@pytest.mark.parametrize("a", [1e154, 1e200, 1e307])
def test_x_in_units_where_its_sd_overflows_is_a_degenerate_sample(unit_stacks, a):
    # sd(x) overflows from about 1e154 on; the variance pilot's bandwidth
    # was then infinite, and its ValueError escaped
    for stack in unit_stacks:
        for outcome in sum(_outcomes(Sample(a * stack.x, stack.y, stack.d, a * stack.c)), []):
            assert isinstance(outcome, DegenerateSample), outcome


@pytest.mark.parametrize("a", [1e-200, 1e-320])
def test_x_in_units_where_its_sd_underflows_is_a_typed_error(unit_stacks, a):
    for stack in unit_stacks:
        for outcome in sum(_outcomes(Sample(a * stack.x, stack.y, stack.d, a * stack.c)), []):
            assert isinstance(outcome, RdbwError), outcome


# below about 1e-152 a variance numerator, which scales as b^2, is subnormal:
# at 1e-160 these samples once moved by up to 7.5e-3 with no error
@pytest.mark.parametrize("b", [1e-160, 1e-158, 1e-155, 1e-153, 1e154, 1e200, 1e307])
def test_y_in_extreme_units_keeps_the_pair_or_fails_typed(unit_stacks, b):
    for stack in unit_stacks:
        unit = _outcomes(stack)[1]
        for outcomes in _outcomes(Sample(stack.x, b * stack.y, stack.d, stack.c)):
            for want, got in zip(unit, outcomes):
                if isinstance(got, RdbwError):
                    assert isinstance(got, DegenerateObjective), got
                else:
                    assert got == pytest.approx(want, rel=RTOL)


def test_x_in_units_of_1e103_keeps_the_pair_or_fails_typed(unit_stacks):
    # the whole-side quartic fits' h^3 overflows there: the curvature pilots
    # m3Y and m3D came out 0, and 9 of these 10 samples returned a pair up to
    # 59% away from 1e103 times the unit pair with no error
    a = 1e103
    selected = 0
    for stack in unit_stacks:
        unit = _outcomes(stack)[1]
        for outcomes in _outcomes(Sample(a * stack.x, stack.y, stack.d, a * stack.c)):
            for want, got in zip(unit, outcomes):
                if not isinstance(got, RdbwError):
                    assert got == pytest.approx((a * want[0], a * want[1]), rel=RTOL)
                    selected += 1
    assert selected
