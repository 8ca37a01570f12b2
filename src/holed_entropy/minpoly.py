"""Minimal polynomial of an isolated real root of a square-free integer
polynomial, in integers wherever a proof can be had.

An integer root r gives x - r.  Otherwise :func:`strip_cyclotomic` divides
out the factor x and the cyclotomic factors, and :func:`certify_irreducible`
proves the rest irreducible by Musser's degree-set test (D. R. Musser, "On
the efficiency of a polynomial irreducibility test", J. ACM 25, 1978):
distinct-degree factorisation modulo a few small primes.  Only a rest that
test leaves unproved is factored by sympy, the optional ``sympy`` extra.

The Markov engine imports this module only when it needs a minimal
polynomial, so no other command compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ResourceLimitError
from .polyexact import Poly, poly_degree, poly_divmod_int, poly_mul, poly_trim, sign_at


def _holds_root(p, lo: Fraction, hi: Fraction) -> bool:
    """p, with at most one root in the bracket (lo, hi], has one there: it
    vanishes at hi, or it is nonzero at lo and changes sign."""
    s_lo = sign_at(p, lo.numerator, lo.denominator)
    s_hi = sign_at(p, hi.numerator, hi.denominator)
    return s_hi == 0 or s_lo * s_hi < 0


def min_poly_of_root(factor, lo: Fraction, hi: Fraction):
    """Irreducible factor (ascending ints) vanishing on the root of the
    square-free ``factor`` isolated in the bracket (lo, hi].

    An integer root r gives x - r (a monic factor, as every factor of a
    characteristic polynomial is, has no other rational roots).  Otherwise
    the factor x and the cyclotomic factors are divided out, which keeps the
    root, and Musser's degree-set test certifies what is left irreducible.
    Only a factor that test cannot certify is factored by sympy.
    """
    r = math.floor(hi)  # the bracket holds r when lo < r, or when lo == hi == r
    if (lo < r or r == lo == hi) and sign_at(factor, r) == 0:
        return [-r, 1]
    rest = strip_cyclotomic(factor)
    if not certify_irreducible(rest):
        return _factor_min_poly(rest, lo, hi)
    if not _holds_root(rest, lo, hi):
        raise AssertionError("stripped factor lost the root of its bracket")
    return rest


def _factor_min_poly(factor, lo: Fraction, hi: Fraction):
    """Irreducible factor vanishing on the isolated root, from sympy's
    ``factor_list``; sympy is the optional ``sympy`` extra.

    The bracket holds one root of the square-free factor, so exactly one
    irreducible factor has a root in it, and the signs at the ends find it:
    an irreducible factor of degree two or more has no rational root, so it
    is nonzero at both ends, and a linear one that vanishes at lo has no
    root in (lo, hi].
    """
    try:
        import sympy as sp
    except ImportError as exc:
        raise ResourceLimitError(
            "the degree-set certificate found no irreducibility proof for a "
            f"degree-{len(factor) - 1} factor of the minimal polynomial; "
            "naming it needs the optional extra holed-entropy[sympy]") from exc
    x = sp.Symbol("x")
    expr = sum(int(c) * x ** k for k, c in enumerate(factor))
    _, factors = sp.factor_list(sp.Poly(expr, x))
    candidates = []
    for poly, _mult in factors:
        coeffs = [int(c) for c in reversed(sp.Poly(poly, x).all_coeffs())]
        if poly_degree(coeffs) >= 1 and _holds_root(coeffs, lo, hi):
            candidates.append(coeffs)
    if len(candidates) != 1:
        raise AssertionError(
            f"{len(candidates)} irreducible factors hold a root of the bracket")
    return candidates[0]


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial: Phi_{rq}(x) = Phi_r(x**q) / Phi_r(x)
    for each prime q of n (r the product of the primes before it), then
    Phi_n(x) = Phi_r(x**(n/r)) for r the product of all of them."""
    p, m, r, q = [-1, 1], n, 1, 2
    while m > 1:
        if m % q == 0:
            p = poly_divmod_int(_stretch(p, q), p)[0]
            r *= q
            while m % q == 0:
                m //= q
        q += 1
    return _stretch(p, n // r)


def _stretch(p: Poly, k: int) -> Poly:
    """p(x**k)."""
    out = [0] * (k * (len(p) - 1) + 1)
    out[::k] = p
    return out


def strip_cyclotomic(p: Poly) -> Poly:
    """A square-free primitive integer p without its factors x and Phi_n.

    The float value of p at exp(2 pi i / n), for every n <= 6 deg p (that
    is every order with phi(n) <= deg p, as n < 6 phi(n) for n < 2 * 10**8),
    picks the candidates: a cyclotomic factor makes it zero up to rounding,
    and the tolerance is far above the rounding error of Horner's rule.
    Each candidate Phi_n is then divided out only when it divides exactly.
    """
    import numpy as np
    p = poly_trim(list(p))
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
    deg = len(p) - 1
    if deg < 1:
        return p
    top = max(abs(c) for c in p)
    a = np.array([c / top for c in reversed(p)])  # exact int / int rounding
    orders = np.arange(1, 6 * deg + 1)
    values = np.abs(np.polyval(a, np.exp(2j * np.pi / orders)))
    for n in orders[values <= (deg + 1) ** 2 * 2.0 ** -40 * np.abs(a).sum()]:
        phi = cyclotomic(int(n))
        if len(phi) <= len(p):
            quot, rem = poly_divmod_int(p, phi)
            if not any(rem):
                p = quot
    return p


# primes for the degree-set certificate, and how many of them it may use
_MUSSER_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_MUSSER_TRIALS = 7


def _gf_divmod(a: Poly, f: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder over GF(p) by a monic f."""
    d = len(f) - 1
    a = list(a)
    quot = [0] * (len(a) - d)  # empty when deg a < deg f
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = a[k + d] % p
        if c:
            for i in range(d):
                a[k + i] -= c * f[i]
    return quot, poly_trim([c % p for c in a[:d]])


def _gf_monic(a: Poly, p: int) -> Poly:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd over GF(p) of a monic a and any b."""
    while b:
        b = _gf_monic(b, p)
        a, b = b, _gf_divmod(a, b, p)[1]
    return a


def _degree_pattern(f: Poly, p: int) -> list[int]:
    """Degrees of the irreducible factors over GF(p) of a monic square-free
    f, by distinct-degree factorisation: gcd(f, x**(p**i) - x) is the product
    of the factors of degree i once those of lower degree are divided out."""
    degrees, h, i = [], [0, 1], 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        power, h, e = h, [1], p  # h = h**p mod f, by squaring
        while e:
            if e & 1:
                h = _gf_divmod(poly_mul(h, power), f, p)[1]
            e >>= 1
            if e:
                power = _gf_divmod(poly_mul(power, power), f, p)[1]
        g = _gf_gcd(f, poly_trim([(c - (k == 1)) % p for k, c in enumerate(h + [0, 0])]), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    return degrees + [len(f) - 1] * (len(f) > 1)


def certify_irreducible(f: Poly) -> bool:
    """True only when the integer polynomial f (primitive, degree >= 1) is
    irreducible over the rationals, by Musser's degree-set test.

    Modulo a prime that keeps the degree of f and leaves it square-free,
    each factor of f over the integers is a product of factors mod p, so its
    degree is a sum of a subset of the degree pattern mod p.  Once the sums
    common to the patterns of up to seven primes in 3..53 are only 0 and
    deg f, f has no proper factor.  False means no proof was found, not that
    f is reducible (x**4 - 10 x**2 + 1 splits modulo every prime).
    """
    deg = len(f) - 1
    goal = 1 | 1 << deg
    common, trials = (2 << deg) - 1, 0  # bit s: a factor of degree s may exist
    for p in _MUSSER_PRIMES:
        if common == goal or trials == _MUSSER_TRIALS:
            break
        if f[-1] % p == 0:
            continue
        fp = _gf_monic([c % p for c in f], p)
        if len(_gf_gcd(fp, poly_trim([k * c % p for k, c in enumerate(fp)][1:]), p)) > 1:
            continue
        trials += 1
        sums = 1
        for d in _degree_pattern(fp, p):
            sums |= sums << d
        common &= sums
    return common == goal
