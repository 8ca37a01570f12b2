import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holed_entropy import (Hole, InvalidParameterError, NoRootError,
                           ResourceLimitError, build_d_adic,
                           build_orbit, determinant, entropy_estimate,
                           entropy_left_hole, entropy_markov, leading_root,
                           refine)
from holed_entropy import kneading, polyexact
from holed_entropy.kneading import DeterminantSeries
from holed_entropy.polyexact import _SparseForm, sign_at

GOLDEN_ROOT = (math.sqrt(5) - 1) / 2
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def ex(x):
    return Fraction(x)


def _t_left_exact(x: Fraction) -> Fraction:
    """T(x^-) on Fractions, the reference for the numerator step of
    build_orbit."""
    if x < Fraction(1, 2):
        return 2 * x
    if x == Fraction(1, 2):
        return Fraction(1)
    return 2 * x - 1


# -- left-limit evaluation ------------------------------------------------------

def test_left_limits():
    assert _t_left_exact(Fraction(1, 3)) == Fraction(2, 3)
    assert _t_left_exact(Fraction(1, 2)) == 1
    assert _t_left_exact(Fraction(3, 4)) == Fraction(1, 2)
    assert _t_left_exact(Fraction(1)) == 1


# -- orbits -----------------------------------------------------------------------

def test_orbit_three_quarters():
    orb = build_orbit(ex(Fraction(3, 4)))
    assert orb.points == (Fraction(3, 4), Fraction(1, 2), Fraction(1))
    assert orb.termination.kind == "preperiodic"
    assert (orb.termination.n, orb.termination.j) == (2, 1)
    assert orb.index_set_A == (0, 1)


def test_orbit_two_thirds():
    orb = build_orbit(ex(Fraction(2, 3)))
    assert orb.points == (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    assert (orb.termination.n, orb.termination.j) == (2, 1)
    assert orb.index_set_A == (0, 2)


def _first_return(orb):
    """The first k >= 1 with a_k >= a, or None."""
    return next((k for k, x in enumerate(orb.points) if k and x >= orb.a), None)


def test_orbit_four_fifths_escape_recorded():
    orb = build_orbit(ex(Fraction(4, 5)))
    assert orb.points == (Fraction(4, 5), Fraction(3, 5), Fraction(1, 5),
                          Fraction(2, 5), Fraction(4, 5))
    assert (orb.termination.n, orb.termination.j) == (4, 1)
    assert _first_return(orb) == 4  # a_4 = a
    assert orb.index_set_A == (0, 1, 4)


def test_orbit_expansivity_invariant():
    # A always contains 0 and at least one later index
    for num, den in [(3, 4), (2, 3), (4, 5), (7, 8), (11, 20), (13, 24), (5, 7)]:
        orb = build_orbit(ex(Fraction(num, den)))
        assert orb.index_set_A[0] == 0
        assert len(orb.index_set_A) >= 2


def test_orbit_recurrence_invariant():
    for a in (Fraction(5, 8), Fraction(7, 9), Fraction(13, 16)):
        orb = build_orbit(ex(a))
        for k in range(len(orb.points) - 1):
            assert orb.points[k + 1] == _t_left_exact(min(a, orb.points[k]))


def test_orbit_rejects_bad_parameter():
    for bad in (Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(3, 2)):
        with pytest.raises(InvalidParameterError):
            build_orbit(ex(bad))


def test_boolean_parameter_is_refused():
    # True is an int, but not a parameter
    for call in (build_orbit, entropy_left_hole):
        with pytest.raises(InvalidParameterError, match="boolean True"):
            call(True)


def test_float_orbit_capped_with_recorded_A():
    # a float has no orbit of its own; the dyadic ends of its enclosure
    # (denominator 2**41, half of eps 1e-12 or less) repeat within 41 + 2
    # steps, with A recorded
    with pytest.raises(InvalidParameterError):
        build_orbit(0.51)
    res = entropy_left_hole(0.51)
    assert res.orbit is None and res.series is None
    lower, upper = res.ends
    assert lower.a <= Fraction(0.51) - Fraction(1e-12)
    assert upper.a >= Fraction(0.51) + Fraction(1e-12)
    for end in res.ends:
        assert 2 ** 41 % end.a.denominator == 0
        assert end.orbit.termination.kind == "preperiodic"
        assert len(end.orbit.points) <= 41 + 2
        assert 0 in end.orbit.index_set_A


def test_float_orbit_ambiguity_near_half():
    # the eps-ball around 0.5 + eps/2 (or 1 - eps/2) leaves (1/2, 1)
    for a in (0.5 + 5e-13, 1 - 5e-13):
        with pytest.raises(InvalidParameterError):
            entropy_left_hole(a)


@pytest.mark.parametrize("a", (0.5 + 2e-12, 1 - 2e-12, 0.5 + 1.2e-12, 1 - 1.2e-12))
def test_enclosure_ends_stay_inside_the_family(a):
    # at 0.5 + 1.2e-12 the end a- rounds onto 1/2 at s = 41, and at
    # 1 - 1.2e-12 the end a+ onto 1, where no orbit exists; s is raised
    res = entropy_left_hole(a)
    lower, upper = res.ends
    assert Fraction(1, 2) < lower.a <= Fraction(a) - Fraction(1e-12)
    assert Fraction(a) + Fraction(1e-12) <= upper.a < 1
    assert res.root.certified is True
    lo, hi = res.interval
    assert 0 < lo <= res.entropy <= hi < math.log(2)


def test_float_orbit_escape_label():
    # no orbit ends as an "escape" any more: the ends of the float 0.7
    # record the first k >= 1 with a_k >= a and still close exactly
    res = entropy_left_hole(0.7)
    for end in res.ends:
        orb, av = end.orbit, end.a
        assert orb.termination.kind == "preperiodic"
        k = _first_return(orb)
        assert k == 2 and orb.points[k] >= av
        assert all(x < av for x in orb.points[1:k])


# -- determinants -----------------------------------------------------------------

def test_determinant_three_quarters_finite_polynomial():
    orb = build_orbit(ex(Fraction(3, 4)))
    ser = determinant(orb, 8)
    assert ser.polynomial == (1, -1, -1)
    assert ser.exact
    assert ser.closed_form["kind"] == "finite"
    assert ser.coefficients == (1, 1, 0, 0, 0, 0, 0, 0, 0)


def test_determinant_two_thirds_factored():
    orb = build_orbit(ex(Fraction(2, 3)))
    ser = determinant(orb, 10)
    assert ser.closed_form["kind"] == "factored"
    # even indices carry coefficient 1 forever
    assert ser.coefficients == tuple(1 if k % 2 == 0 else 0 for k in range(11))
    # the closed-form polynomial reduces to 1 - z - z^2
    assert ser.polynomial == (1, -1, -1)


def test_factored_coefficients_match_continued_recurrence():
    # periodic tail must agree with literal continuation of the recurrence
    for a in (Fraction(2, 3), Fraction(4, 5), Fraction(7, 10), Fraction(5, 7),
              Fraction(351, 355)):
        orb = build_orbit(ex(a))
        N, j = orb.termination.n, orb.termination.j
        for K in (1, j, N - 1, N, N + 3 * (N - j + 1)):
            ser = determinant(orb, K)
            pts = list(orb.points)
            while len(pts) <= K:
                pts.append(_t_left_exact(min(a, pts[-1])))
            manual = tuple(1 if Fraction(1, 2) <= x < 1 else 0 for x in pts[:K + 1])
            assert ser.coefficients == manual


def test_finite_coefficients_stop_at_the_terminal_one():
    orb = build_orbit(ex(Fraction(13, 16)))
    assert orb.points[-1] == 1
    N = orb.termination.n
    full = tuple(1 if Fraction(1, 2) <= x < 1 else 0 for x in orb.points)
    for K in (1, N - 1, N, N + 5):
        assert determinant(orb, K).coefficients == (full + (0,) * K)[:K + 1]


def test_determinant_seven_eighths():
    orb = build_orbit(ex(Fraction(7, 8)))
    ser = determinant(orb)
    assert ser.polynomial == (1, -1, -1, -1)  # tribonacci-style, exact


def test_determinant_truncation_error_on_capped():
    # the orbit of 9004/9007 does not repeat within the cap, so it has no
    # finite polynomial
    orb = build_orbit(ex(Fraction(9004, 9007)))
    assert orb.termination.to_json() == {"kind": "capped", "N": kneading.ORBIT_CAP}
    assert len(orb.points) == kneading.ORBIT_CAP + 1
    with pytest.raises(ResourceLimitError):
        determinant(orb, 1000)


def test_capped_tail_bound():
    # an enclosure adds no tail: its bracket is the hull of its ends'
    # brackets, and its error bound is the width of that hull
    res = entropy_left_hole(ex(Fraction(9004, 9007)))
    lo, hi = res.root.bracket
    assert lo == min(end.root.bracket[0] for end in res.ends)
    assert hi == max(end.root.bracket[1] for end in res.ends)
    assert res.root.error_bound == hi - lo
    assert lo <= res.root.r <= hi
    assert res.entropy == -math.log(res.root.r)


def test_exact_orbit_past_the_cap_is_certified():
    # certified: False before, from a series truncated at the cap
    a = Fraction(9004, 9007)
    res = entropy_left_hole(ex(a))
    assert res.root.certified is True
    lower, upper = res.ends
    # 2**-48 is at most half of tol 1e-14
    assert lower.a < a < upper.a
    assert upper.a - lower.a == Fraction(1, 2 ** 48)
    lo, hi = res.interval
    assert hi - lo < 1e-13
    for end in res.ends:
        assert end.root.certified is True
        elo, ehi = end.interval
        assert lo <= elo <= ehi <= hi
        blo, bhi = end.root.bracket
        poly = end.series.polynomial
        assert _sign_by_integer_horner(poly, blo) > 0 > _sign_by_integer_horner(poly, bhi)


# -- roots ------------------------------------------------------------------------

def test_leading_root_golden():
    ser = DeterminantSeries(1, (1, -1, -1), True, None)
    res = leading_root(ser, 1e-14)
    assert abs(res.r - GOLDEN_ROOT) < 1e-13
    assert abs(res.entropy - LOG_GOLDEN) < 1e-13
    assert res.error_bound < 1e-12
    assert res.certified


def test_leading_root_certified_at_every_degree():
    res = entropy_left_hole(ex(Fraction(6893, 6901)))
    assert len(res.series.polynomial) == 879
    assert res.root.certified is True
    # so is the enclosure of a float, whose ends are exact polynomials
    assert entropy_left_hole(0.9371).root.certified is True
    # a series that is only part of the determinant gets no certificate
    ser = DeterminantSeries(1, (1, -1, -1), False, None)
    assert leading_root(ser, 1e-14).certified is False


@pytest.mark.parametrize("tol", (0.0, -1e-12, math.inf, math.nan))
def test_leading_root_rejects_bad_tol(tol):
    ser = DeterminantSeries(1, (1, -1, -1), True, None)
    with pytest.raises(InvalidParameterError):
        leading_root(ser, tol)


def test_leading_root_no_root():
    # 1 - z and 1 - z + z^2 stay positive on (0, 1): the Newton bracket
    # fails its check, and the sign at the upper end refuses
    for poly in ((1, -1), (1, -1, 1)):
        ser = DeterminantSeries(0, poly, True, None)
        with pytest.raises(NoRootError):
            leading_root(ser, 1e-12)


@pytest.mark.parametrize("a", (Fraction(2, 3), Fraction(3, 4), Fraction(351, 355), 0.7),
                         ids=str)
def test_certified_row_reads_two_exact_signs(a):
    # d decreases on [0, 1), so the checked Newton bracket is the whole
    # certificate: one exact sign at each end, none at the end of the search
    with mock.patch.object(_SparseForm, "exact", autospec=True,
                           side_effect=_SparseForm.exact) as spy:
        res = entropy_left_hole(a)
    assert res.root.certified is True
    assert spy.call_count == 2 * len(res.ends or (res,))


def _sign_by_integer_horner(poly, x: float) -> int:
    # x = num / 2**e; the sign of den**deg * P(num/den) is the sign of P(x)
    num, den = x.as_integer_ratio()
    deg = len(poly) - 1
    total = sum(c * num ** k * den ** (deg - k) for k, c in enumerate(poly))
    return (total > 0) - (total < 0)


def test_leading_root_float_zero_midpoint_keeps_bisecting():
    # bisection hits a midpoint where the float evaluation is exactly 0.0
    for a in (Fraction(3392, 3399), Fraction(6893, 6901)):
        res = entropy_left_hole(ex(a))
        lo, hi = res.root.bracket
        poly = res.series.polynomial
        assert lo < hi
        assert res.root.error_bound >= hi - lo > 0
        assert _sign_by_integer_horner(poly, lo) > 0 > _sign_by_integer_horner(poly, hi)


# Bisection that follows float signs without a rounding bound (dense or
# sparse Horner) fails its bracket certification on 351/355, 397/488, 597/614
# and 647/661, because rounding noise flips a sign near the root.  The other
# five rows are kept as further regression rows for float-sign noise.
NOISY_SIGN_ROWS = (Fraction(351, 355), Fraction(206, 213), Fraction(288, 289),
                   Fraction(331, 334), Fraction(307, 368), Fraction(337, 376),
                   Fraction(397, 488), Fraction(597, 614), Fraction(647, 661))


@pytest.mark.parametrize("a", NOISY_SIGN_ROWS, ids=str)
def test_noisy_float_sign_rows_are_certified(a):
    res = entropy_left_hole(ex(a))
    assert res.root.certified is True
    markov = entropy_markov(build_d_adic(2), Hole([(ex(a), ex(1))]))
    assert abs(res.entropy - markov.entropy) < 1e-12
    lo, hi = res.root.bracket
    poly = res.series.polynomial
    assert _sign_by_integer_horner(poly, lo) > 0 > _sign_by_integer_horner(poly, hi)


def _reference_bracket(poly, tol):
    """Bisection of (0, 1) on the exact sign, with the adjacent-floats stop:
    the bracket and its midpoint."""
    sign = _SparseForm(poly).exact
    lo = 0.0
    hi = 1.0 - min(tol, 1e-9)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s = sign(mid)
        if s > 0:
            lo = mid
        elif s < 0:
            hi = mid
        else:
            lo = hi = mid
            break
    return lo, hi, 0.5 * (lo + hi)


def _check_against_reference(a, tol=1e-14):
    # an exact a, or each dyadic end of the enclosure of a float a
    res = entropy_left_hole(a, tol=tol)
    assert res.root.certified is True
    for end in res.ends or (res,):
        poly = end.series.polynomial
        lo, hi = end.root.bracket
        assert end.root.certified is True
        assert lo < hi
        assert hi - lo <= tol or math.nextafter(lo, 1.0) == hi
        assert end.root.error_bound >= hi - lo
        assert lo <= end.root.r <= hi
        assert _sign_by_integer_horner(poly, lo) > 0 > _sign_by_integer_horner(poly, hi)
        _, _, r_ref = _reference_bracket(poly, tol)
        assert abs(end.root.r - r_ref) <= tol


# near both ends of the family: roots near 1 and near 1/2, long and dyadic
# orbits, and floats whose enclosures have ends close to 1/2 and to 1
EDGE_ROWS = (Fraction(501, 1000), Fraction(10001, 20000), Fraction(9999, 10000),
             Fraction(4095, 4096), 0.5 + 2e-12, 1 - 2e-12)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(3, 2000), data=st.data())
def test_left_hole_brackets_certified_property(q, data):
    p = data.draw(st.integers(q // 2 + 1, q - 1), label="p")
    _check_against_reference(Fraction(p, q))


def test_every_left_hole_below_denominator_80_matches_the_reference():
    with mock.patch.object(polyexact, "_bisect", wraps=polyexact._bisect) as spy:
        for q in range(3, 80):
            for p in range(q // 2 + 1, q):
                if math.gcd(p, q) == 1:
                    _check_against_reference(Fraction(p, q))
        for a in EDGE_ROWS:
            _check_against_reference(a)
    # the Newton bracket certifies every row: no row needs the bisection
    assert spy.call_count == 0


@pytest.mark.parametrize("a", (Fraction(2, 3), Fraction(11, 20), Fraction(351, 355),
                               Fraction(6893, 6901)) + EDGE_ROWS, ids=str)
def test_failed_newton_certificate_falls_back_to_bisection(a):
    # Newton "converges" onto 0, so the bracket of width tol around it holds
    # no root and fails the exact check
    with mock.patch.object(_SparseForm, "newton", lambda self, lo, hi: lo):
        res = entropy_left_hole(a)
    assert res.root.certified is True
    for end in res.ends or (res,):
        lo, hi, _ = _reference_bracket(end.series.polynomial, 1e-14)
        assert end.root.bracket == (lo, hi)
        assert end.root.certified is True
        assert lo <= end.root.r <= hi
        assert end.root.error_bound == hi - lo


def test_exact_dyadic_root_keeps_a_zero_width_bracket():
    # with tol below 2**-54 Newton starts at 1/2, the root of 1 - 2z, where
    # the exact sign is 0
    res = leading_root(DeterminantSeries(1, (1, -2), True, None), 1e-20)
    assert res.bracket == (0.5, 0.5)
    assert res.r == 0.5 and res.error_bound == 0.0
    assert res.certified is True
    # Newton lands on the root 1/4 of 1 - 4z, and tol is below the spacing
    # there, so the exact sign at r itself decides
    res = leading_root(DeterminantSeries(1, (1, -4), True, None), 1e-16)
    assert res.bracket == (0.25, 0.25) and res.r == 0.25 and res.certified is True


def test_float_mode_bracket_passes_the_integer_sign_check():
    res = entropy_left_hole(0.7)
    assert res.root.certified is True
    lo, hi = res.interval
    assert lo <= LOG_GOLDEN <= hi  # 0.7 lies on the golden plateau
    for end in res.ends:
        blo, bhi = end.root.bracket
        poly = end.series.polynomial
        assert 0 < bhi - blo <= 1e-14
        assert sign_at(poly, *blo.as_integer_ratio()) > 0 > sign_at(poly, *bhi.as_integer_ratio())


def test_interval_holds_minus_log_of_the_bracket():
    # math.log rounds either way; the one-ulp widening of each end covers it
    rows = [ex(Fraction(p, q)) for q in range(3, 16) for p in range(q // 2 + 1, q)]
    rows += [0.51, 0.55, 0.7, 0.9371, 0.75 + 1e-9]
    with localcontext() as ctx:
        ctx.prec = 40
        for a in rows:
            res = entropy_left_hole(a)
            lo, hi = res.root.bracket
            ilo, ihi = res.interval
            assert Decimal(ilo) <= -Decimal(hi).ln()
            assert -Decimal(lo).ln() <= Decimal(ihi)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(3, 2000), data=st.data())
def test_float_enclosure_holds_the_exact_bracket_property(q, data):
    p = data.draw(st.integers(q // 2 + 1, q - 1), label="p")
    exact = entropy_left_hole(ex(Fraction(p, q)))
    enclosure = entropy_left_hole(float(Fraction(p, q)))
    assert enclosure.root.certified is True
    lo, hi = enclosure.interval
    assert lo <= exact.interval[0] <= exact.interval[1] <= hi


def test_tol_below_the_float_spacing_returns_adjacent_floats():
    # the bisection used to stop only at width <= max(tol, 1e-16), which one
    # float spacing on [1/2, 1) never reaches, so these calls never returned;
    # the second pass forces the fallback bisection
    probe = (
        "import json\n"
        "from fractions import Fraction\n"
        "from unittest import mock\n"
        "from holed_entropy import entropy_left_hole, polyexact\n"
        "rows = []\n"
        "for fallback in (False, True):\n"
        "    newton = (lambda self, lo, hi: lo) if fallback else polyexact._SparseForm.newton\n"
        "    with mock.patch.object(polyexact._SparseForm, 'newton', newton), \\\n"
        "            mock.patch.object(polyexact, '_bisect', wraps=polyexact._bisect) as spy:\n"
        "        for a in ('2/3', '3/4', '7/8', '11/20'):\n"
        "            for tol in (1e-16, 1e-17, 1e-20):\n"
        "                res = entropy_left_hole(Fraction(a), tol=tol)\n"
        "                rows.append([a, res.root.bracket, res.root.r,\n"
        "                             res.root.error_bound, res.root.certified])\n"
        "    print(spy.call_count)\n"
        "print(json.dumps(rows))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    newton_calls, fallback_calls, rows = proc.stdout.splitlines()
    # the Newton bracket needs no bisection; the fallback bisects once a row
    assert (int(newton_calls), int(fallback_calls)) == (0, 12)
    rows = json.loads(rows)
    assert len(rows) == 24
    for a, (lo, hi), r, bound, certified in rows:
        poly = determinant(build_orbit(ex(Fraction(a)))).polynomial
        assert certified is True
        assert math.nextafter(lo, 1.0) == hi
        assert r in (lo, hi)
        assert bound >= hi - lo
        assert _sign_by_integer_horner(poly, lo) > 0 > _sign_by_integer_horner(poly, hi)


def test_newton_iterates_stay_inside_the_bracket():
    # (1 - z)(1 - 2z) is convex and flat near 0.7, the middle of
    # [0.45, 0.95]: the first Newton step would land at 0.1
    form = _SparseForm((1, -3, 2))
    with mock.patch.object(form, "value_slope", wraps=form.value_slope) as spy:
        r = form.newton(0.45, 0.95)
    assert abs(r - 0.5) < 1e-15
    assert all(0.45 <= call.args[0] <= 0.95 for call in spy.call_args_list)


def test_root_derivative_negative_at_root():
    for a in (Fraction(3, 4), Fraction(2, 3), Fraction(7, 10), Fraction(7, 8)):
        res = entropy_left_hole(ex(a))
        poly = res.series.polynomial
        slope = sum(k * c * res.root.r ** (k - 1) for k, c in enumerate(poly) if k)
        assert slope < 0


# -- composed entropy ---------------------------------------------------------------

def test_entropy_three_quarters():
    res = entropy_left_hole(ex(Fraction(3, 4)))
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    assert res.p == 1
    assert res.orbit.termination.kind == "preperiodic"


def test_entropy_two_thirds():
    res = entropy_left_hole(ex(Fraction(2, 3)))
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    # leading root satisfies z^2 + z - 1 = 0
    r = res.root.r
    assert abs(r * r + r - 1) < 1e-12


def test_entropy_near_one_approaches_log2():
    a = 1 - Fraction(1, 2 ** 20)
    res = entropy_left_hole(ex(a))
    assert abs(res.entropy - math.log(2)) <= 0.01


def test_entropy_monotone_in_a():
    values = [Fraction(k, 32) for k in range(17, 32)]
    entropies = [entropy_left_hole(ex(a)).entropy for a in values]
    for h1, h2 in zip(entropies, entropies[1:]):
        assert h1 <= h2 + 1e-10


def test_preperiodic_closed_form_agrees_with_truncated_series():
    for a in (Fraction(2, 3), Fraction(4, 5), Fraction(11, 20)):
        orb = build_orbit(ex(a))
        closed = leading_root(determinant(orb), 1e-14)
        N = orb.termination.n
        K = N + 40  # long truncation of the raw series
        coeffs = determinant(orb, K).coefficients
        poly = [0] * (K + 2)
        poly[0] = 1
        for k, m in enumerate(coeffs):
            if m:
                poly[k + 1] = -1
        raw = leading_root(DeterminantSeries(K, tuple(poly), False, None), 1e-14)
        # the raw series has derivative <= -1 on [0, 1), so its dropped tail
        # moves the root by at most the tail's size at the bracket's top
        x = raw.bracket[1]
        tail = x ** (K + 2) / (1 - x)
        assert abs(closed.r - raw.r) <= closed.error_bound + raw.error_bound + tail


def test_truncation_stability_float():
    # the enclosures of one float at two tolerances both hold its entropy
    res1 = entropy_left_hole(0.55, epsilon=1e-12)
    res2 = entropy_left_hole(0.55, epsilon=1e-10)
    assert abs(res1.entropy - res2.entropy) <= res1.root.error_bound + 1e-12
    (lo1, hi1), (lo2, hi2) = res1.interval, res2.interval
    assert lo2 <= hi1 and lo1 <= hi2


def test_float_entropy_vs_oracle():
    res = entropy_left_hole(0.55)
    lo, hi = res.interval
    assert 0 < lo <= res.entropy <= hi < math.log(2)
    tree = refine(build_d_adic(2), Hole([(ex(Fraction(11, 20)), ex(1))]), 20)
    oracle = entropy_estimate(tree, 20)
    assert abs(res.entropy - oracle) <= 0.05


def test_cross_engine_envelope():
    m = build_d_adic(2)
    for a in (Fraction(3, 4), Fraction(5, 8), Fraction(13, 16)):
        res = entropy_left_hole(ex(a))
        tree = refine(m, Hole([(ex(a), ex(1))]), 24)
        h24 = entropy_estimate(tree, 24)
        assert abs(res.entropy - h24) <= 0.02


def test_json_fields():
    out = entropy_left_hole(ex(Fraction(3, 4))).to_json()
    assert set(out) == {"a", "entropy", "r", "p", "termination", "K", "error_bound",
                        "certified"}
    assert out["p"] == 1 and out["a"] == "3/4" and out["certified"] is True
    out = entropy_left_hole(0.75).to_json()
    assert set(out) == {"a", "entropy", "r", "p", "interval", "ends", "error_bound",
                        "certified"}
    assert out["a"] == 0.75 and out["certified"] is True
    assert out["interval"][0] <= out["entropy"] <= out["interval"][1]
    assert [end["termination"]["kind"] for end in out["ends"]] == ["preperiodic"] * 2
