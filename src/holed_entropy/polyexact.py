"""Exact univariate polynomials, roots on [0, inf), and integer matrices.

Polynomials are dense coefficient lists in ascending order (``p[k]`` is the
coefficient of x**k) over Python ints.  Everything here is exact; floats
only appear as seeds for bracketing, and every bracket is certified by exact
sign evaluation.

Signs at rational points come from :func:`sign_at`, integer Horner on
``den**deg * p(num/den)``, so no Fraction is normalised along the way.
Sparse polynomials, given as ``(exponent, coefficient)`` pairs, take their
signs at dyadic points from :func:`sign_at_dyadic`: a 96-bit fixed-point pass
with a counted truncation error, and shift-Horner when that cannot decide.

Both entropy engines get their certified roots here, and both bisect in
one exact-sign loop (:func:`_bisect`), whose midpoint is an argument:
floats for the tower's fallback, integers on a dyadic grid for every Markov
root.  :func:`log_bracket` rounds the log of either root bracket outward,
so both engines bound their entropy the same way.

:func:`sparse_root` finds the sign change in (0, 1) of the tower
determinant, a sparse polynomial of degree up to a few thousand with
d(0) > 0.  Float Newton on the sparse form, from the middle of (0, 1),
gives r, and :func:`sign_at_dyadic` checks the bracket of width at most
``tol`` around r (adjacent floats when ``tol`` is below the float spacing
at r) at both ends.  Where that check fails, bisection of (0, 1) on the
exact sign takes over, so its bracket holds the root by construction.

:func:`largest_real_root` finds the largest root in [0, inf), the only range
a Perron root can lie in, on the dyadic grid ``2**-e``, with ``e`` the
smallest exponent whose step is at most ``tol``.  The grid-scaled polynomial
``P(z) = 2**(e*deg) * p(z / 2**e)`` has integer coefficients.  Without a
sign variation p has no positive root (Descartes' rule of signs), so the
answer is 0 or none.  Otherwise a float seed comes from Newton's method
started above every root, at Fujiwara's bound (:func:`_newton_seed`).  For
the characteristic polynomial of a nonnegative matrix every root has real
part at most the Perron root rho, and by Gauss-Lucas so have the roots of
p' and p'', so p, p' and p'' keep one sign on (rho, inf) and the iterates
decrease monotonically to rho; for any other p the seed is only a guess.
It is rounded outward to grid points ``lo >= 0`` and ``hi``, and
Descartes' rule on the Taylor shift
``P(z + lo)`` certifies the seed bracket: one sign variation means exactly
one real root above ``lo``, and a sign change of ``P`` on ``(lo, hi]`` puts
it there.  When there is no positive seed or the variation count is not one
(roots closer than the seed pad, or complex roots near the real axis to the
right of ``lo``), Vincent-Collins-Akritas bisection isolates the root
instead: Descartes' rule on integer Taylor shifts over the dyadic intervals
of ``(0, 2**b]``, ``b`` the integer Cauchy bound.  Both brackets end in one
integer bisection on exact signs (:func:`_bisect`) down to the grid step.
The Markov engine calls it once, on the square-free part of the
characteristic polynomial.

The square-free decomposition divides only by primitive integer gcds, so by
Gauss's lemma every quotient is an integer polynomial and the division is
exact integer arithmetic.

Matrix rank over the rationals (:func:`int_matrix_rank`) is fraction-free
elimination on integers, so no Fraction is formed there either.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd as int_gcd

from .errors import InvalidParameterError, NoRootError, ResourceLimitError

Poly = list


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------

def poly_trim(p: Poly) -> Poly:
    """p without its trailing zeros; p itself when it has none."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p if n == len(p) else p[:n]


def poly_degree(p: Poly) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p: Poly, x):
    acc = 0 * x if p else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign_at(p: Poly, num: int, den: int = 1) -> int:
    """Sign of p at num/den (den > 0), exact at every degree: integer
    Horner on den**deg * p(num/den)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


# fractional bits of the fixed-point pass of sign_at_dyadic, and the power
# below which it bounds the remaining terms by a geometric tail
_FIXED_BITS = 96
_FIXED_TAIL = 1 << 16


def sign_at_dyadic(terms, num: int, shift: int) -> int:
    """Sign of sum c * x**k over the ``(k, c)`` pairs of ``terms`` (ascending,
    distinct k >= 0) at the dyadic point x = num / 2**shift, exact.

    For 0 <= x <= 1 a fixed-point pass decides first.  Every power x**k is an
    integer truncated to 96 fractional bits, so it is low by less than
    ``err`` units of 2**-96, where ``err`` grows by one per truncation (plus
    the errors of the two factors, which are at most 1).  Once x**k drops
    below 2**-80 the remaining terms are bounded together by
    max|c| x**k / (1 - x).  When the truncated sum exceeds sum |c| * err plus
    that tail in absolute value, its sign is the true sign.
    Otherwise (a sum within that bound of zero, as at an exact root) and for
    x outside [0, 1], the sign comes from exact shift-Horner on
    ``sum c * num**k * 2**(shift * (D - k))``, D the largest exponent.
    """
    if not terms:
        return 0
    den = 1 << shift
    if 0 <= num <= den:
        bits = _FIXED_BITS
        if shift <= bits:
            x, xerr = num << (bits - shift), 0
        else:
            x, xerr = num >> (shift - bits), 1
        squares = [(x, xerr)]  # x**(2**i), with its error bound
        power, perr, prev = 1 << bits, 0, 0  # x**prev
        total = bound = 0
        for k, c in terms:
            gap, prev, i = k - prev, k, 0
            while gap:
                if i == len(squares):
                    s, e = squares[-1]
                    squares.append(((s * s) >> bits, 2 * e + 1))
                if gap & 1:
                    s, e = squares[i]
                    power = (power * s) >> bits
                    perr += e + 1
                gap >>= 1
                i += 1
            if power < _FIXED_TAIL and num < den:
                # x**k < 2**-80: bound this term and all later ones by the
                # geometric tail max|c| x**k / (1 - x)
                cmax = max(abs(c) for _, c in terms)
                bound += cmax * (power + perr) * den // (den - num) + 1
                break
            total += c * power
            bound += abs(c) * perr
        if abs(total) > bound:
            return (total > 0) - (total < 0)
    top = terms[-1][0]
    acc, prev = 0, top
    for k, c in reversed(terms):
        acc = acc * num ** (prev - k) + (c << (shift * (top - k)))
        prev = k
    acc *= num ** prev
    return (acc > 0) - (acc < 0)


def taylor_shift(p: Poly, c) -> Poly:
    """Coefficients of p(x + c), ascending, by repeated synthetic division."""
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_deriv(p: Poly) -> Poly:
    return poly_trim([k * p[k] for k in range(1, len(p))])


def poly_content(p: Poly) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, abs(int(c)))
    return g or 1


def poly_primitive(p: Poly) -> Poly:
    """Integer polynomial divided by its content, sign-normalized positive lead."""
    p = poly_trim(list(p))
    if not p:
        return []
    g = poly_content(p)
    p = [int(c) // g for c in p]
    if p[-1] < 0:
        p = [-c for c in p]
    return p


def _int_pseudo_rem(p: Poly, q: Poly) -> Poly:
    """Pseudo-remainder of integer polynomials: lc(q)^(deg p - deg q + 1) p mod q."""
    p = list(p)
    dq = len(q) - 1
    lq = q[-1]
    while len(poly_trim(p)) - 1 >= dq and poly_trim(p):
        p = poly_trim(p)
        dp = len(p) - 1
        lp = p[-1]
        p = [c * lq for c in p]
        for i in range(len(q)):
            p[dp - dq + i] -= lp * q[i]
        p = poly_trim(p)
        if len(p) - 1 == dp:
            raise AssertionError("pseudo-remainder failed to reduce degree")
    return p


def poly_gcd_int(p: Poly, q: Poly) -> Poly:
    """Primitive gcd of integer polynomials via the primitive remainder sequence."""
    a, b = poly_primitive(p), poly_primitive(q)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = poly_primitive(_int_pseudo_rem(a, b))
        a, b = b, r
    return poly_primitive(a)


def poly_divmod_int(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder (deg q coefficients, untrimmed) of integer
    polynomials, with integer steps: a quotient coefficient that the lead of
    q does not divide raises AssertionError (never for monic q)."""
    d = len(q) - 1
    lead = q[-1]
    r = list(p)
    quot = [0] * (len(r) - d)
    for k in range(len(quot) - 1, -1, -1):
        c, rem = divmod(r[k + d], lead)
        if rem:
            raise AssertionError("inexact integer polynomial division")
        quot[k] = c
        if c:
            for i in range(d):
                r[k + i] -= c * q[i]
    return quot, r[:d]


def _exact_quotient(p: Poly, q: Poly) -> Poly:
    """p / q for an integer p and a primitive integer divisor q, made
    primitive.  By Gauss's lemma the quotient has integer coefficients, so
    every step divides exactly; a remainder means q does not divide p and
    raises AssertionError."""
    quot, rem = poly_divmod_int(p, q)
    if any(rem):
        raise AssertionError("nonzero remainder in integer polynomial division")
    return poly_primitive(quot)


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Factor an integer polynomial as prod g_i**i with g_i squarefree.

    Returns the nontrivial (g_i, i) pairs; constant content is dropped.
    Every division is by a primitive gcd and exact over the integers.
    """
    p = poly_primitive(p)
    if poly_degree(p) < 1:
        return []
    out = []
    g = poly_gcd_int(p, poly_deriv(p))
    c = _exact_quotient(p, g)
    i = 1
    while poly_degree(g) > 0:
        d = poly_gcd_int(c, g)
        s = _exact_quotient(c, d)
        if poly_degree(s) > 0:
            out.append((s, i))
        c = d
        g = _exact_quotient(g, d)
        i += 1
    if poly_degree(c) > 0:
        out.append((c, i))
    return out


# ---------------------------------------------------------------------------
# roots on [0, inf)
# ---------------------------------------------------------------------------

def _variations(values) -> int:
    """Sign changes along the nonzero entries of a sequence."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _grid_poly(p: Poly, e: int) -> Poly:
    """p on the grid 2**-e: the integer polynomial 2**(e*deg) * p(z / 2**e)."""
    deg = len(p) - 1
    return [c * (1 << (e * (deg - k))) for k, c in enumerate(p)]


def _bisect(sign, lo, hi, width, midpoint):
    """Bisection of the bracket [lo, hi] of one sign change, ``sign`` > 0
    below it and < 0 above it, exact.  ``midpoint(lo, hi)`` halves the
    bracket: floats or grid integers.

    Stops at width <= ``width``, at a midpoint that rounds onto an end
    (adjacent floats; never for integers with ``width`` >= 1), or at a
    midpoint where the sign is 0, the root, returned as a zero-width
    bracket.
    """
    while hi - lo > width:
        mid = midpoint(lo, hi)
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


def _newton_seed(p: Poly) -> float | None:
    """Float Newton from above for the largest real root of p; None when
    the iteration leaves its premises or its step budget.

    For the characteristic polynomial of a nonnegative matrix (less some
    factors x) every root has real part at most rho (Perron-Frobenius),
    and by Gauss-Lucas so has every root of p' and p''.  Scaled to a
    positive lead, p, p' and p'' are then positive on (rho, inf), so
    Newton started above rho decreases monotonically to it.  The start is
    Fujiwara's bound 2 max |p[n-k] / p[n]|**(1/k).  p(x) / x**n and
    p'(x) / x**(n-1) are evaluated by Horner in y = 1/x, so no power of x
    is formed.  From far above, a step shrinks the gap by about a factor
    1 - 1/n, so the budget grows with n.  The iteration stops at the
    first iterate that does not decrease; a derivative <= 0 or an iterate
    <= 0 (rho = 0, or a polynomial outside the premises) gives no seed.
    Any seed is only a guess: the caller certifies it.
    """
    n = len(p) - 1
    sign = 1 if p[-1] > 0 else -1
    try:
        coeffs = [sign * float(c) for c in p]
        dcoeffs = [k * c for k, c in enumerate(coeffs)]
        lead = math.log(abs(p[-1]))
        x = 2 * math.exp(max((math.log(abs(c)) - lead) / (n - j)
                             for j, c in enumerate(p[:-1]) if c))
    except (OverflowError, ValueError):  # past float range, or p = c x**n
        return None
    for _ in range(64 + 8 * n):
        if not x > 0:
            return None
        y, v, d = 1 / x, 0.0, 0.0
        for c, dc in zip(coeffs, dcoeffs):
            v = v * y + c
            d = d * y + dc
        if not d > 0:
            return None
        nxt = x - x * v / d
        if not nxt < x:
            return x
        x = nxt
    return None


def _seed_bracket(p: Poly, e: int) -> tuple[int, int, int] | None:
    """Grid bracket (lo, hi] of the largest positive root of p around its
    Newton seed (:func:`_newton_seed`), in units of 2**-e with lo >= 0,
    and e; None when there is no positive seed or the Descartes
    certificate fails.

    The certificate is one sign variation of p(x + lo): exactly one root of
    p lies above lo, counted with multiplicity.  So a certified root is
    simple, and p need not be square-free."""
    seed = _newton_seed(p)
    if seed is None or not seed > 0:
        return None
    pad = max(1e-7, 1e-9 * (1 + abs(seed)))
    n, d = (seed - pad).as_integer_ratio()
    lo = max(0, (n << e) // d)
    n, d = (seed + pad).as_integer_ratio()
    hi = -((-n << e) // d)
    scaled = _grid_poly(p, e)
    shifted = taylor_shift(scaled, lo)
    # one variation: exactly one root above lo, and scaled(lo) = shifted[0]
    if shifted[0] == 0 or _variations(shifted) != 1:
        return None
    s_hi = sign_at(scaled, hi)
    if s_hi == (1 if shifted[0] > 0 else -1):
        return None  # the root lies above hi
    return (hi, hi, e) if s_hi == 0 else (lo, hi, e)


def _vca_bracket(p: Poly, e: int) -> tuple[int, int, int] | None:
    """Grid bracket (lo, hi] of the largest positive root of a square-free
    p, in units of 2**-f, and f; None when p has no positive root.

    Vincent-Collins-Akritas bisection: every root lies below 2**b (Cauchy's
    bound 1 + max|p_k| / |p_deg|), and the dyadic intervals of (0, 2**b]
    are searched right half first.  On the interval, q(x) is p at its left
    end plus x times its length, scaled to integers, and Descartes' rule on
    (x + 1)**deg * q(1 / (x + 1)) bounds the roots inside: no sign
    variation means none, one means exactly one.  The first interval with a
    root at its right end, or with one variation and no root at its left
    end, holds the largest root.  f is the finer of e and the grid of that
    interval.
    """
    top = max(abs(c) for c in p[:-1])
    b = max(1, top.bit_length() - abs(p[-1]).bit_length() + 2)
    unit = [c * (1 << (b * k)) for k, c in enumerate(p)]  # p(2**b x): roots in (0, 1)
    stack = [(0, 0)]  # (a, j): the interval (a, a + 1] * 2**-j of unit
    while stack:
        a, j = stack.pop()
        q = taylor_shift(_grid_poly(unit, j), a)
        f = max(e, j - b)
        shift = f + b - j
        if sum(q) == 0:  # q(1) = 0
            return (a + 1) << shift, (a + 1) << shift, f
        variations = _variations(taylor_shift(q[::-1], 1))
        if variations == 1 and q[0]:
            return a << shift, (a + 1) << shift, f
        if variations:
            stack += [(2 * a, j + 1), (2 * a + 1, j + 1)]
    return None


def check_tol(tol: float) -> None:
    """Refuse a root tolerance that is not positive and finite."""
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be positive and finite")


def _grid(tol: float) -> tuple[int, int]:
    """The exponent e of the grid step 2**-e <= tol, and the bracket width,
    in steps, that bisection stops at."""
    check_tol(tol)
    e = max(0, 1 - math.frexp(tol)[1])
    return e, max(1, math.floor(Fraction(tol) * (1 << e)))


def _refine(p: Poly, grid: tuple[int, int, int], e: int,
            width: int) -> tuple[float, Fraction, Fraction]:
    """Bisect the grid bracket (lo, hi] in units of 2**-f, ``grid`` = (lo,
    hi, f), of the one root of p in it on exact signs (:func:`_bisect`) to
    at most ``width`` steps of 2**-e, and polish a float inside it with
    three guarded Newton steps.  p is nonzero at lo, or lo = hi."""
    lo_z, hi_z, f = grid
    scaled = _grid_poly(p, f)
    s_lo = sign_at(scaled, lo_z)
    lo_z, hi_z = _bisect(lambda m: s_lo * sign_at(scaled, m), lo_z, hi_z,
                         width << (f - e), lambda a, b: (a + b) >> 1)
    lo, hi = Fraction(lo_z, 1 << f), Fraction(hi_z, 1 << f)
    r = float((lo + hi) / 2)
    dp = poly_deriv(p)
    for _ in range(3):
        slope = float(poly_eval(dp, r))
        if slope == 0:
            break
        cand = r - float(poly_eval(p, r)) / slope
        if float(lo) <= cand <= float(hi):
            r = cand
    return r, lo, hi


def largest_real_root(p: Poly, tol: float = 1e-14) -> tuple[float, Fraction, Fraction]:
    """Largest root in [0, inf) of a squarefree integer polynomial.

    Returns (float approximation, exact bracket lo, exact bracket hi) with
    0 <= lo, hi - lo <= tol and the float inside the bracket; the bracket
    holds no other root and is dyadic.  A float Newton seed, started above
    every root at Fujiwara's bound and certified by Descartes' rule, gives
    the bracket (:func:`_seed_bracket`).  When p divides the characteristic
    polynomial of a nonnegative matrix and vanishes at its Perron root rho,
    every root of p, p' and p'' has real part at most rho
    (Perron-Frobenius, Gauss-Lucas), so with a positive lead they are
    positive on (rho, inf) and the iterates decrease to rho.  For any other
    p a poor seed only fails the certificate, and Vincent-Collins-Akritas
    bisection isolates the root.  Both share one tail: exact integer
    bisection of the bracket and a guarded Newton polish of its float.
    Raises InvalidParameterError when p has no root in [0, inf).
    """
    p = poly_trim(list(p))
    if poly_degree(p) < 1:
        raise InvalidParameterError("constant polynomial has no roots")
    e, width = _grid(tol)
    grid = None
    if _variations(p):  # without a sign variation p has no positive root
        grid = _seed_bracket(p, e) or _vca_bracket(p, e)
    if grid is None:
        if p[0]:
            raise InvalidParameterError("polynomial has no root in [0, inf)")
        grid = 0, 0, e  # the root 0
    return _refine(p, grid, e, width)


def _holds_root(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """p, with at most one root in the bracket (lo, hi], has one there: it
    vanishes at hi, or it is nonzero at lo and changes sign."""
    s_lo = sign_at(p, lo.numerator, lo.denominator)
    s_hi = sign_at(p, hi.numerator, hi.denominator)
    return s_hi == 0 or s_lo * s_hi < 0


# ---------------------------------------------------------------------------
# the sign change in (0, 1) of a sparse polynomial
# ---------------------------------------------------------------------------

# the most Newton steps that sparse_root takes
_NEWTON_STEPS = 16


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


def sparse_root(polynomial, tol: float) -> tuple[float, float, float]:
    """The sign change in (0, 1) of a polynomial with p(0) > 0 and few
    nonzero terms, as (r, lo, hi): floats with lo <= r <= hi, p(lo) > 0 >
    p(hi) or lo = hi a root, and hi - lo <= tol (adjacent floats when tol
    is below the float spacing there).

    Float Newton on the sparse form from the middle of (0, 1) gives r, and
    the bracket of width <= tol around r is checked at both ends by
    :func:`sign_at_dyadic`.  If that check fails, bisection of (0, 1) on
    the exact sign (:func:`_bisect`) runs instead; p(0) > 0 and the exact
    sign at its upper end is negative, so its bracket holds the root by
    construction.  The upper end is 1 - min(tol, 1e-9), and p > 0 there
    raises :class:`NoRootError`.
    """
    check_tol(tol)
    form = _SparseForm(polynomial)
    hi = 1.0 - min(tol, 1e-9)
    if form.exact(hi) > 0:
        raise NoRootError("determinant stays positive on (0, 1); entropy 0")
    r = form.newton(0.0, hi)
    bracket = _newton_bracket(form.exact, r, 0.0, hi, tol)
    if bracket is None:
        bracket = _bisect(form.exact, 0.0, hi, tol, lambda a, b: 0.5 * (a + b))
        r = min(max(r, bracket[0]), bracket[1])
    return (r,) + bracket


def log_bracket(lo, hi) -> tuple[float, float]:
    """Floats below and above log x for every x in the root bracket
    [lo, hi], 0 < lo <= hi: the log of each end, widened outward by one ulp
    to cover the rounding of math.log."""
    return math.nextafter(math.log(lo), -math.inf), math.nextafter(math.log(hi), math.inf)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

CHAR_POLY_SIZE_CAP = 400


def berkowitz_char_poly(rows: list[list[int]]) -> Poly:
    """Characteristic polynomial det(xI - M) of an integer matrix.

    Division-free (Berkowitz), so the result is exact over the integers.
    The matrix-vector products run over the nonzero entries of the leading
    block only, a list grown by one row and one column per step, and the
    Toeplitz product is truncated at degree k.
    Returned ascending; the empty matrix gives [1].
    """
    n = len(rows)
    if n > CHAR_POLY_SIZE_CAP:
        raise ResourceLimitError(f"matrix size {n} exceeds the "
                                 f"characteristic-polynomial cap {CHAR_POLY_SIZE_CAP}")
    if n == 0:
        return [1]
    for r in rows:
        if len(r) != n:
            raise InvalidParameterError("matrix is not square")
    nz_rows = [[(j, a) for j, a in enumerate(r) if a] for r in rows]
    nz_cols = [[] for _ in range(n)]
    for i, r in enumerate(nz_rows):
        for j, a in r:
            nz_cols[j].append((i, a))
    sub = []  # nonzero (i, j, a) of the leading m x m submatrix
    # p_k: char poly (descending) of the leading k x k principal submatrix
    p = [1, -rows[0][0]]
    for k in range(2, n + 1):
        m = k - 1  # the leading submatrix has rows and columns 0..m-1
        # grow it by row and column m - 1
        sub += [(m - 1, j, a) for j, a in nz_rows[m - 1] if j < m]
        sub += [(i, m - 1, a) for i, a in nz_cols[m - 1] if i < m - 1]
        r = [(j, a) for j, a in nz_rows[m] if j < m]
        t = [1, -rows[m][m]]
        v = [rows[i][m] for i in range(m)]
        for _ in range(m):
            s = 0
            for j, a in r:
                s += a * v[j]
            t.append(-s)
            if len(t) <= k:
                w = [0] * m
                for i, j, a in sub:
                    w[i] += a * v[j]
                v = w
        # the Toeplitz product, truncated at degree k
        conv = [0] * (k + 1)
        for i, a in enumerate(t):
            if a:
                for j, b in enumerate(p[:k + 1 - i]):
                    conv[i + j] += a * b
        p = conv
    return list(reversed(p))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination.

    After k pivots every entry below them is a (k+1)-minor of the input, so
    each update divides exactly by the previous pivot; a remainder raises
    AssertionError.
    """
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    rank, prev = 0, 1
    for col in range(m):
        piv = next((i for i in range(rank, n) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[col]
        for row in a[rank + 1:]:
            f = row[col]
            for j in range(col + 1, m):
                q, r = divmod(p * row[j] - f * top[j], prev)
                if r:
                    raise AssertionError("inexact fraction-free elimination step")
                row[j] = q
            row[col] = 0
        prev = p
        rank += 1
        if rank == n:
            break
    return rank
