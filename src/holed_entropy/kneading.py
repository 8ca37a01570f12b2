"""Entropy of the doubling map with a left hole [a, 1] via the boundary-orbit
tower and the leading root of its determinant.

The boundary orbit is a_0 = a, a_{k+1} = T(min{a, a_k}^-) with T the doubling
map and left limits T(x^-) = 2x on (0, 1/2), T(1/2^-) = 1, T(x^-) = 2x - 1 on
(1/2, 1].  Writing A = {k : 1/2 <= a_k < 1}, the tower determinant is

    d(z) = 1 - sum_{k in A} z^{k+1},

and entropy = -log r for the unique root r of d in (0, 1).  Finite orbits
(every rational a) admit an exact polynomial form: when the orbit first
repeats a_{N+1} = a_j with j >= 1 the determinant factors as

    d(z) = (1 - z^(N-j+1)) * (1 - sum_k M~_k z^(k+1)),

with the coefficient tail M~ eventually periodic over indices j..N.  When the
orbit passes through 1/2 exactly (so the next value is 1 and the graph closes
onto the base), the determinant is the plain finite sum over A with no cycle
factor; the value 1 never contributes a coefficient.

For a = p/q the orbit stays on the points k/q, so the orbit runs on the
integer numerators and builds the Fraction points only when they are read.
The polynomial has few nonzero terms (all small integers), and every
evaluation runs on that sparse form.  Every sign that steers the root search
comes from the exact dyadic helper :func:`polyexact.sign_at_dyadic`:

* float Newton steps from the middle of (0, 1) give r, and the bracket of
  width at most ``tol`` around r (adjacent floats when ``tol`` is below the
  float spacing at r) is confirmed by the exact helper at both ends;
* where that check fails, bisection of (0, 1) on the exact sign takes over,
  so its bracket holds the root by construction.

``certified`` means the exact helper found d > 0 at the lower end of the
bracket and d < 0 at the upper end (or d = 0 at a zero-width bracket), so the
root lies inside it.

A float a, which stands for the ball [a - eps, a + eps] with eps the
``epsilon`` argument (``DEFAULT_EPSILON`` by default), and an exact a whose
orbit does not repeat within ``ORBIT_CAP`` points, get an enclosure instead
of a polynomial of their own.  h(a) does not decrease in a (a smaller hole
leaves more survivors), so every parameter in [a - eps, a + eps] has its
entropy in [h(a-), h(a+)] for dyadic rationals a- <= a - eps and
a+ >= a + eps.  A dyadic orbit repeats within s + 2 steps when its
denominator is 2**s, so both ends have exact polynomials with certified
brackets, and the enclosure reports -log of the hull of the two brackets,
each end widened outward by one ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import InvalidParameterError, NoRootError, ResourceLimitError
from .mapmodel import _exact
from .polyexact import poly_trim, sign_at_dyadic

DEFAULT_TRUNCATION = 4096
DEFAULT_TOL = 1e-14
# the radius of the ball that entropy_left_hole encloses around a float a
DEFAULT_EPSILON = 1e-12
# the most orbit steps build_orbit takes while looking for a repeat
ORBIT_CAP = 4096

# the most Newton steps that leading_root takes
_NEWTON_STEPS = 16

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Termination:
    """How the boundary orbit was classified.

    kind is "preperiodic" (a_{N+1} = a_j exactly, 1 <= j <= N) or "capped"
    (no repeat within ``ORBIT_CAP`` steps, N = ``ORBIT_CAP``).
    """

    kind: str
    n: Optional[int] = None
    j: Optional[int] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.n is not None:
            out["N"] = self.n
        if self.j is not None:
            out["j"] = self.j
        return out


@dataclass(frozen=True)
class TowerOrbit:
    """The recorded boundary orbit of an exact a with its classification.

    The orbit is a_k = nums[k] / q: integer numerators over the denominator
    q of a.  ``points`` holds a_0..a_K as Fractions, built on first read.
    ``index_set_A`` lists the k with 1/2 <= a_k < 1 (a terminal value of
    exactly 1 carries no index).  ``escape_index`` is the first k >= 1 with
    a_k >= a, when one exists.
    """

    a: Fraction
    nums: tuple
    q: int
    termination: Termination
    index_set_A: tuple[int, ...]
    escape_index: Optional[int] = None

    @cached_property
    def points(self) -> tuple:
        q = self.q
        return (self.a,) + tuple(Fraction(x, q) for x in self.nums[1:])


def _t_left_exact(x: Fraction) -> Fraction:
    """T(x^-) on Fractions; build_orbit runs the same map on the integer
    numerators of k/q, and the tests check it against this form."""
    if x < _HALF:
        return 2 * x
    if x == _HALF:
        return Fraction(1)
    return 2 * x - 1


def build_orbit(a) -> TowerOrbit:
    """Iterate the boundary recurrence of an exact a and classify its
    termination: the first exact repeat among indices >= 1 (reached for
    every rational a given enough steps), or "capped" when none shows
    within ``ORBIT_CAP`` steps.  ``a`` is an int, Fraction or rational
    string; a float has no orbit of its own and is refused, and
    :func:`entropy_left_hole` encloses it between two exact ones.
    """
    av = _exact(a)
    if not (_HALF < av < 1):
        raise InvalidParameterError(f"parameter must lie in (1/2, 1), got {av}")
    # a_k = x_k / q: the left-limit doubling on numerators
    p, q = av.numerator, av.denominator
    nums = [p]
    seen: dict[int, int] = {}
    escape_index = None
    termination = Termination("capped", ORBIT_CAP)
    x = p
    for n in range(1, ORBIT_CAP + 1):
        y = 2 * min(p, x)
        x = y if y <= q else y - q
        j = seen.get(x)
        if j is not None:
            termination = Termination("preperiodic", n - 1, j)
            break
        seen[x] = n
        nums.append(x)
        if escape_index is None and x >= p:
            escape_index = n
    A = tuple(k for k, x in enumerate(nums) if q <= 2 * x < 2 * q)
    return TowerOrbit(av, tuple(nums), q, termination, A, escape_index)


@dataclass(frozen=True)
class DeterminantSeries:
    """The determinant 1 - sum m_k z^(k+1) of a preperiodic orbit.

    ``polynomial`` (ascending) is its exact closed form, and ``exact`` says
    that it is the whole determinant, which is always so for
    :func:`determinant`; a series built elsewhere from part of it gets no
    certificate.  ``coefficients`` lists m_0..m_K and is derived on first
    read: a factored closed form repeats its cycle up to K, and otherwise
    m_k = -polynomial[k + 1], zero past the degree.
    """

    K: int
    polynomial: tuple[int, ...]
    exact: bool
    closed_form: Optional[dict] = None

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        K, closed = self.K, self.closed_form
        if closed is not None and closed["kind"] == "factored":
            m, j, period = closed["coefficients"], closed["j"], closed["period"]
            # m_0..m_{j-1}, then the cycle m_j..m_N repeated up to K
            return (m[:j] + m[j:] * -((j - K - 1) // period))[:K + 1]
        m = tuple(-c for c in self.polynomial[1:K + 2])
        return m + (0,) * (K + 1 - len(m))


def determinant(orbit: TowerOrbit, K: int | None = None) -> DeterminantSeries:
    """The exact determinant of a preperiodic orbit, with its coefficients
    listed up to K (they continue periodically past the orbit).

    A capped orbit has no finite polynomial and raises
    :class:`ResourceLimitError`.
    """
    A = orbit.index_set_A
    last = len(orbit.nums) - 1
    if K is None:
        K = max(last, 1)
    if K < 1:
        raise InvalidParameterError("truncation must be >= 1")
    term = orbit.termination

    if term.kind == "preperiodic":
        N, j = term.n, term.j
        m = [0] * (N + 1)
        for k in A:
            m[k] = 1
        m = tuple(m)
        if orbit.nums[N] == orbit.q:
            # the orbit passed through 1/2; the graph closes onto the base
            # flat and the determinant is the plain finite sum over A
            poly = [0] * (N + 2)
            poly[0] = 1
            for k in A:
                poly[k + 1] = -1
            closed = {"kind": "finite", "N": N, "coefficients": m}
        else:
            P = N - j + 1
            poly = [0] * (N + 2 + P)
            poly[0] = 1
            poly[P] -= 1
            for k in A:
                poly[k + 1] -= 1
                if k < j:
                    poly[P + k + 1] += 1
            closed = {"kind": "factored", "N": N, "j": j, "period": P,
                      "coefficients": m}
        return DeterminantSeries(K, tuple(poly_trim(poly)), True, closed)

    raise ResourceLimitError(
        f"the orbit does not repeat within {ORBIT_CAP} steps, "
        "so it has no finite determinant")


@dataclass(frozen=True)
class RootResult:
    """Leading determinant root r in (0, 1) and the entropy -log r.

    ``bracket`` holds the root and r; its width is at most the requested
    ``tol``, or one float spacing when ``tol`` is below the spacing at r,
    and zero at an exact dyadic root.  ``error_bound`` is that width.
    ``certified`` is True when the bracket of an exact polynomial passed the
    exact sign check (d > 0 at its lower end, d < 0 at its upper end, by
    integer arithmetic).

    The root of an enclosure (see :func:`entropy_left_hole`) is composed
    from its two ends: ``bracket`` is the hull of theirs, r its midpoint,
    ``residual`` the larger of theirs, and it is certified when both are.
    """

    r: float
    residual: float
    entropy: float
    error_bound: float
    bracket: tuple[float, float]
    certified: bool = False


class _SparseForm:
    """The nonzero terms of a polynomial, evaluated at floats x in [0, 1].

    ``exact`` is the exact sign.  ``value_slope`` and ``newton`` are plain
    float arithmetic, for estimates that the exact sign then confirms.
    """

    def __init__(self, polynomial):
        self.terms = [(k, c) for k, c in enumerate(polynomial) if c]
        # Horner steps up from each term: gap to the next exponent, and c
        self.ups = [(hi - lo, c) for (lo, c), (hi, _) in zip(self.terms, self.terms[1:])]

    def exact(self, x: float) -> int:
        num, den = x.as_integer_ratio()
        return sign_at_dyadic(self.terms, num, den.bit_length() - 1)

    def value_slope(self, x: float) -> tuple[float, float]:
        """The float value and derivative at x, in one sparse Horner pass."""
        acc, slope = float(self.terms[-1][1]), 0.0
        for g, c in reversed(self.ups):
            xg = x ** g
            slope = slope * xg + g * acc * x ** (g - 1)
            acc = acc * xg + c
        bottom = self.terms[0][0]
        if bottom:
            xb = x ** bottom
            slope = slope * xb + bottom * acc * x ** (bottom - 1)
            acc *= xb
        return acc, slope

    def newton(self, lo: float, hi: float) -> float:
        """Float Newton from the middle of [lo, hi] until an iterate repeats
        (a fixed point, or a two-cycle in the rounding noise); a step that
        would leave the bracket goes halfway to the end it crosses instead."""
        r = 0.5 * (lo + hi)
        before = None
        for _ in range(_NEWTON_STEPS):
            v, dv = self.value_slope(r)
            if not dv:
                break
            cand = r - v / dv
            if cand < lo:
                cand = 0.5 * (r + lo)
            elif cand > hi:
                cand = 0.5 * (r + hi)
            if cand == r or cand == before:
                return cand
            before, r = r, cand
        return r


def _bisect(sign, lo: float, hi: float, tol: float):
    """Bisection of [lo, hi], sign > 0 at lo and < 0 at hi.

    Stops at width <= tol, when lo and hi are adjacent floats (the midpoint
    rounds onto an end), or at a midpoint that is an exact root, which it
    returns as a zero-width bracket.
    """
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
            return mid, mid
    return lo, hi


def _newton_bracket(exact, r: float, lo: float, hi: float, tol: float):
    """The bracket of width <= tol around r inside [lo, hi], or the adjacent
    floats around the root next to r when tol is below the float spacing
    there, if the exact sign confirms it; otherwise None."""
    # ulp(r) pays for rounding r -+ half outward, so the width stays <= tol
    half = 0.5 * tol - math.ulp(r)
    lo, hi = max(lo, r - half), min(hi, r + half)
    if not lo < hi:
        s = exact(r)
        if s == 0:
            return r, r
        lo, hi = (r, math.nextafter(r, 1.0)) if s > 0 else (math.nextafter(r, 0.0), r)
    if exact(lo) > 0 > exact(hi):
        return lo, hi
    return None


def leading_root(series: DeterminantSeries, tol: float = DEFAULT_TOL) -> RootResult:
    """Locate the unique sign change of the determinant in (0, 1).

    Float Newton on the sparse form from the middle of (0, 1) gives r, and
    the bracket of width <= tol around r is checked at both ends by the
    exact helper (:func:`polyexact.sign_at_dyadic`).  If that check fails,
    bisection of (0, 1) on the exact sign runs until its width is <= tol or
    its ends are adjacent floats; d(0) = 1 > 0 and the exact sign at the
    upper end is negative, so that bracket holds the root by construction.
    The reported error bound is the width of the bracket.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be positive and finite")
    form = _SparseForm(series.polynomial)
    hi = 1.0 - min(tol, 1e-9)
    if form.exact(hi) > 0:
        raise NoRootError("determinant stays positive on (0, 1); entropy 0")
    r = form.newton(0.0, hi)
    bracket = _newton_bracket(form.exact, r, 0.0, hi, tol)
    if bracket is None:
        bracket = _bisect(form.exact, 0.0, hi, tol)
        r = min(max(r, bracket[0]), bracket[1])
    lo, hi = bracket
    residual = abs(form.value_slope(r)[0])
    return RootResult(r, residual, -math.log(r), hi - lo, (lo, hi), series.exact)


@dataclass(frozen=True)
class LeftHoleEntropy:
    """Composed result: orbit, determinant, root, and pole order.

    ``a`` is the exact parameter, or the float centre of an enclosed ball.
    An enclosure has no orbit or determinant of its own: ``ends`` holds the
    exact results at its dyadic ends a- < a+, and ``root`` is composed from
    theirs.
    """

    a: Fraction | float
    orbit: Optional[TowerOrbit]
    series: Optional[DeterminantSeries]
    root: RootResult
    p: int = 1  # the leading eigenvalue of this family is always simple
    ends: tuple = ()

    @property
    def entropy(self) -> float:
        return self.root.entropy

    @property
    def interval(self) -> tuple[float, float]:
        """[-log hi, -log lo] over the root bracket, each end widened outward
        by one ulp to cover the rounding of log.  It holds the entropy, and
        for an enclosure the entropy of every parameter within eps of a."""
        lo, hi = self.root.bracket
        return (math.nextafter(-math.log(hi), -math.inf),
                math.nextafter(-math.log(lo), math.inf))

    def to_json(self) -> dict:
        out = {
            "a": str(self.a) if isinstance(self.a, Fraction) else self.a,
            "entropy": self.root.entropy,
            "r": self.root.r,
            "p": self.p,
            "error_bound": self.root.error_bound,
            "certified": self.root.certified,
        }
        if self.ends:
            out["interval"] = list(self.interval)
            out["ends"] = [end.to_json() for end in self.ends]
        else:
            out["termination"] = self.orbit.termination.to_json()
            out["K"] = self.series.K
        return out


def _solve(orbit: TowerOrbit, tol: float) -> LeftHoleEntropy:
    series = determinant(orbit, DEFAULT_TRUNCATION)
    return LeftHoleEntropy(orbit.a, orbit, series, leading_root(series, tol))


def entropy_left_hole(a, tol: float = DEFAULT_TOL,
                      epsilon: float = DEFAULT_EPSILON) -> LeftHoleEntropy:
    """Entropy of the doubling map with hole [a, 1], 1/2 < a < 1.

    ``a`` is exact (an int, Fraction or rational string) or a float.  An
    exact a whose orbit repeats within ``ORBIT_CAP`` steps is solved on its
    own polynomial.  A float a stands for the ball [a - epsilon,
    a + epsilon] (``epsilon`` is read for a float a only, and must be
    positive and finite); it, and an exact a whose orbit passes the cap
    (radius 0), are enclosed: the ends are a- = floor((a - eps) 2**s) / 2**s
    and a+ = ceil((a + eps) 2**s) / 2**s, with 2**-s at most half of eps
    (of tol for the exact a) and s raised until both ends lie strictly
    inside (1/2, 1).
    """
    if isinstance(a, float):
        if not (0 < epsilon < math.inf):
            raise InvalidParameterError(
                f"epsilon must be positive and finite, got {epsilon}")
        if not math.isfinite(a):
            raise InvalidParameterError(f"parameter a = {a} is not finite")
        eps = Fraction(epsilon)
        lo, hi = Fraction(a) - eps, Fraction(a) + eps
        if not (_HALF < lo and hi < 1):
            raise InvalidParameterError(
                f"parameter must lie in (1/2, 1) by more than epsilon, got {a}")
        spacing = epsilon
    else:
        orbit = build_orbit(a)
        if orbit.termination.kind == "preperiodic":
            return _solve(orbit, tol)
        a = lo = hi = orbit.a
        spacing = tol
    s = 2 - math.frexp(spacing)[1]  # 2**-s <= spacing / 2
    while True:
        den = 2 ** s
        ends = (Fraction(math.floor(lo * den), den), Fraction(math.ceil(hi * den), den))
        if _HALF < ends[0] and ends[1] < 1:
            break
        s += 1
    lower, upper = (_solve(build_orbit(x), tol) for x in ends)
    lo_r = min(lower.root.bracket[0], upper.root.bracket[0])
    hi_r = max(lower.root.bracket[1], upper.root.bracket[1])
    r = 0.5 * (lo_r + hi_r)
    root = RootResult(r, max(lower.root.residual, upper.root.residual),
                      -math.log(r), hi_r - lo_r, (lo_r, hi_r),
                      lower.root.certified and upper.root.certified)
    return LeftHoleEntropy(a, None, None, root, ends=(lower, upper))
