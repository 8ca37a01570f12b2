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

For a = p/q the orbit stays on the points k/q, so exact mode iterates the
integer numerators.  The polynomial has few nonzero terms (all small
integers), and the root is bracketed by bisection on its sparse form.  A float
sign is trusted only when the value exceeds a rounding bound for that sum
(see ``_FLOAT_TAIL``); otherwise the sign comes from the exact dyadic helper
:func:`polyexact.sign_at_dyadic`.  For an exact polynomial, ``certified``
means that helper found d > 0 at the lower end of the bracket and d < 0 at
the upper end, so the root lies inside it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import (AmbiguousBoundaryError, InvalidParameterError,
                     NoRootError, TruncationError)
from .polyexact import poly_eval, poly_trim, sign_at_dyadic
from .scalar import Scalar, as_scalar

DEFAULT_TRUNCATION = 4096
DEFAULT_TOL = 1e-14

# The float sign at x sums the terms with exponent k below the first E where
# max|c| x**E / (1 - x) <= _FLOAT_TAIL, which bounds every dropped term
# together.  Sparse Horner over n terms rounds at most 4 units of 2**-53 per
# term (pow within 1 ulp, multiply, add), so the float sum is within
# (4 n + 8) * 2**-53 * sum |c| x**k of the kept sum; _FLOAT_SLACK covers the
# dropped tail and underflow.
_FLOAT_TAIL = 2.0 ** -80
_FLOAT_SLACK = 2.0 ** -78
_UNIT_ROUNDOFF = 2.0 ** -53

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Termination:
    """How the boundary orbit was classified.

    kind is "preperiodic" (a_{N+1} = a_j exactly, 1 <= j <= N), "escape"
    (a_N >= a observed in float mode before any repeat), or "capped".
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
    """The recorded boundary orbit with its classification.

    ``points`` holds a_0..a_K.  ``index_set_A`` lists the k with
    1/2 <= a_k < 1 (a terminal value of exactly 1 carries no index).
    ``escape_index`` is the first k >= 1 with a_k >= a, when one exists.
    ``approx_repeat`` flags a float-mode repeat; float orbits always
    terminate as capped because float equality cannot certify the true
    orbit's period.
    """

    a: Scalar
    points: tuple
    termination: Termination
    index_set_A: tuple[int, ...]
    escape_index: Optional[int] = None
    approx_repeat: Optional[tuple[int, int]] = None

    @property
    def is_exact(self) -> bool:
        return self.a.is_exact


def _t_left_exact(x: Fraction) -> Fraction:
    """T(x^-) on Fractions; build_orbit runs the same map on the integer
    numerators of k/q, and the tests check it against this form."""
    if x < _HALF:
        return 2 * x
    if x == _HALF:
        return Fraction(1)
    return 2 * x - 1


def build_orbit(a, k_cap: int = DEFAULT_TRUNCATION) -> TowerOrbit:
    """Iterate the boundary recurrence and classify its termination.

    Exact mode detects the first exact repeat among indices >= 1 (always
    reached for rational a given a large enough cap).  Float mode runs to the
    cap, records an approximate repeat if one shows up, and refuses values
    within epsilon of the 1/2 boundary.
    """
    a = as_scalar(a)
    if k_cap < 2:
        raise InvalidParameterError("k_cap must be >= 2")
    if a.is_exact:
        av = a.value
        if not (_HALF < av < 1):
            raise InvalidParameterError(f"parameter must lie in (1/2, 1), got {av}")
        # a_k = x_k / q: the left-limit doubling on numerators
        p, q = av.numerator, av.denominator
        nums = [p]
        seen: dict[int, int] = {}
        escape_index = None
        termination = Termination("capped", k_cap)
        x = p
        for n in range(1, k_cap + 1):
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
        points = (av,) + tuple(Fraction(x, q) for x in nums[1:])
        return TowerOrbit(a, points, termination, A, escape_index)

    eps = a.epsilon
    av = float(a.value)
    if not (0.5 + eps < av < 1 - eps):
        raise InvalidParameterError(
            f"parameter must lie in (1/2, 1) by more than epsilon, got {av}")
    points = [av]
    seen: dict[float, int] = {}
    escape_index = None
    approx = None
    for n in range(1, k_cap + 1):
        x = points[-1]
        if abs(x - 0.5) < eps and x != 0.5:
            raise AmbiguousBoundaryError(
                f"orbit point {x} is within epsilon of 1/2; rerun in exact mode")
        if abs(x - av) < eps and x != av:
            raise AmbiguousBoundaryError(
                f"orbit point {x} is within epsilon of the hole boundary; "
                "rerun in exact mode")
        if n == k_cap:
            break
        y = min(av, x)
        if y < 0.5:
            nxt = 2.0 * y
        elif y == 0.5:
            nxt = 1.0
        else:
            nxt = 2.0 * y - 1.0
        if approx is None:
            j = seen.get(nxt)
            if j is not None:
                approx = (n - 1, j)
            else:
                seen[nxt] = n
        points.append(nxt)
        if escape_index is None and nxt >= av:
            escape_index = n
    A = tuple(k for k, x in enumerate(points) if 0.5 <= x < 1)
    term = Termination("capped", len(points) - 1)
    if escape_index is not None and approx is None:
        term = Termination("escape", escape_index)
    return TowerOrbit(a, tuple(points), term, A, escape_index, approx)


@dataclass(frozen=True)
class DeterminantSeries:
    """The determinant 1 - sum m_k z^(k+1), with closed form when available.

    ``coefficients`` lists m_0..m_K.  ``polynomial`` (ascending) is exact for
    finite orbits; for capped orbits it is the truncated series and
    ``tail_bound`` carries the geometric remainder envelope.
    """

    coefficients: tuple[int, ...]
    polynomial: tuple[int, ...]
    exact: bool
    closed_form: Optional[dict] = None

    @cached_property
    def _derivative(self) -> list[int]:
        p = self.polynomial
        return [k * p[k] for k in range(1, len(p))]

    def tail_bound(self, x: float) -> float:
        if self.exact:
            return 0.0
        K = len(self.coefficients) - 1
        if not (0 <= x < 1):
            raise InvalidParameterError("tail bound needs x in [0, 1)")
        return x ** (K + 2) / (1 - x)

    def evaluate(self, x):
        return poly_eval(self.polynomial, x)

    def derivative_at(self, x) -> float:
        return float(poly_eval(self._derivative, x))


def determinant(orbit: TowerOrbit, K: int | None = None) -> DeterminantSeries:
    """Determinant coefficients for the orbit, truncated at K.

    Pre-periodic orbits yield an exact polynomial; their coefficient list is
    extended periodically to K.  Capped orbits yield the truncated series
    with a geometric tail bound.
    """
    points = orbit.points
    A = orbit.index_set_A
    last = len(points) - 1
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
        if points[N] == 1:
            # the orbit passed through 1/2; the graph closes onto the base
            # flat and the determinant is the plain finite sum over A
            poly = [0] * (N + 2)
            poly[0] = 1
            for k in A:
                poly[k + 1] = -1
            coeffs = (m + (0,) * (K - N))[:K + 1]
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
            # m_0..m_{j-1}, then the cycle m_j..m_N repeated up to K
            coeffs = (m[:j] + m[j:] * -((j - K - 1) // P))[:K + 1]
            closed = {"kind": "factored", "N": N, "j": j, "period": P,
                      "coefficients": m}
        return DeterminantSeries(coeffs, tuple(poly_trim(poly)), True, closed)

    if K > last:
        raise TruncationError(
            f"truncation {K} exceeds the capped orbit length {last}")
    poly = [0] * (K + 2)
    poly[0] = 1
    for k in A:
        if k > K:
            break
        poly[k + 1] = -1
    coeffs = tuple(-c for c in poly[1:])
    return DeterminantSeries(coeffs, tuple(poly_trim(poly)), False, None)


@dataclass(frozen=True)
class RootResult:
    """Leading determinant root r in (0, 1) and the entropy -log r.

    ``certified`` is True when the bracket of an exact polynomial passed the
    exact sign check (d > 0 at its lower end, d < 0 at its upper end, by
    integer arithmetic); float-mode (truncated) series are never certified.
    """

    r: float
    residual: float
    entropy: float
    error_bound: float
    bracket: tuple[float, float]
    certified: bool = False


def _sign_function(polynomial):
    """The guarded sign and the exact sign of the polynomial at floats x in
    [0, 1], both on its sparse form.

    The guarded sign is the float sign of sparse Horner over the terms kept
    at x when the value exceeds its rounding bound; otherwise the exact
    dyadic helper decides.
    """
    terms = [(k, c) for k, c in enumerate(polynomial) if c]
    exps = [k for k, _ in terms]
    # Horner steps up from each term: gap to the next exponent, c, |c|
    ups = [(hi - lo, c, abs(c)) for (lo, c), hi in zip(terms, exps[1:])]
    gaps = {g for g, _, _ in ups}
    cmax = max(abs(c) for _, c in terms)
    bottom = exps[0]

    def exact(x: float) -> int:
        num, den = x.as_integer_ratio()
        return sign_at_dyadic(terms, num, den.bit_length() - 1)

    def sign(x: float) -> int:
        n = len(terms)
        if 0 < x < 1:
            cut = math.log(_FLOAT_TAIL * (1 - x) / cmax) / math.log(x)
            n = max(1, bisect_left(exps, int(cut) + 1))
        powers = {g: x ** g for g in gaps}
        c = terms[n - 1][1]
        acc, size = float(c), float(abs(c))
        for g, c, a in reversed(ups[:n - 1]):
            xg = powers[g]
            acc = acc * xg + c
            size = size * xg + a
        if bottom:
            xb = x ** bottom
            acc *= xb
            size *= xb
        if abs(acc) > (4 * n + 8) * _UNIT_ROUNDOFF * size + _FLOAT_SLACK:
            return 1 if acc > 0 else -1
        return exact(x)

    return sign, exact


def leading_root(series: DeterminantSeries, tol: float = DEFAULT_TOL) -> RootResult:
    """Locate the unique sign change of the determinant in (0, 1) by bisection
    on its sparse form, then polish with float Newton steps on the dense form.

    Each bisection sign is a float sign only when the float value exceeds the
    rounding bound of its sum; near the root it is exact (see
    :func:`polyexact.sign_at_dyadic`).  For an exact polynomial the two ends
    of the bracket are then checked by the exact helper, and ``certified``
    reports that check; a failed check raises :class:`NoRootError`.

    The reported error bound adds the truncation tail to the bracket width;
    the truncated series has derivative <= -1 on [0, 1), so a tail of size t
    moves the root by at most t.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be positive and finite")
    sign, exact = _sign_function(series.polynomial)
    lo = 0.0
    hi = 1.0 - min(tol, 1e-9)
    if sign(hi) > 0:
        raise NoRootError(
            "determinant stays positive on (0, 1); entropy 0 at this truncation")
    width = max(tol, 1e-16)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        s = sign(mid)
        if s > 0:
            lo = mid
        elif s < 0:
            hi = mid
        else:
            lo = hi = mid
            break
    r = 0.5 * (lo + hi)
    for _ in range(3):
        dpr = series.derivative_at(r)
        if dpr == 0:
            break
        step = float(series.evaluate(r)) / dpr
        cand = r - step
        if lo <= cand <= hi:
            r = cand
    # exact sign certification of the bracket; a zero-width bracket is an
    # exact root, already settled by the exact helper in the loop
    if series.exact and lo < hi and not exact(lo) > 0 > exact(hi):
        raise NoRootError("bracket failed exact sign certification")
    residual = abs(float(series.evaluate(r)))
    tail = series.tail_bound(hi)
    error = (hi - lo) + tail
    entropy = -math.log(r)
    return RootResult(r, residual, entropy, error, (lo, hi), series.exact)


@dataclass(frozen=True)
class LeftHoleEntropy:
    """Composed result: orbit, determinant, root, and pole order."""

    a: Scalar
    orbit: TowerOrbit
    series: DeterminantSeries
    root: RootResult
    p: int = 1  # the leading eigenvalue of this family is always simple

    @property
    def entropy(self) -> float:
        return self.root.entropy

    def to_json(self) -> dict:
        return {
            "a": str(self.a.value) if self.a.is_exact else float(self.a.value),
            "entropy": self.root.entropy,
            "r": self.root.r,
            "p": self.p,
            "termination": self.orbit.termination.to_json(),
            "K": len(self.series.coefficients) - 1,
            "error_bound": self.root.error_bound,
            "certified": self.root.certified,
        }


def entropy_left_hole(a, K: int = DEFAULT_TRUNCATION,
                      tol: float = DEFAULT_TOL,
                      k_cap: int | None = None) -> LeftHoleEntropy:
    """Entropy of the doubling map with hole [a, 1], 1/2 < a < 1."""
    a = as_scalar(a)
    orbit = build_orbit(a, k_cap if k_cap is not None else max(K, 2))
    if orbit.termination.kind == "preperiodic":
        series = determinant(orbit, K)
    else:
        series = determinant(orbit, min(K, len(orbit.points) - 1))
    root = leading_root(series, tol)
    return LeftHoleEntropy(a, orbit, series, root)
