import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holed_entropy import entropy_left_hole, polyexact
from holed_entropy.errors import InvalidParameterError, ResourceLimitError
from holed_entropy.polyexact import (CHAR_POLY_SIZE_CAP, _int_pseudo_rem,
                                     berkowitz_char_poly, int_matmul,
                                     int_matrix_rank, largest_real_root,
                                     poly_content, poly_deriv, poly_eval,
                                     poly_gcd_int, poly_mul, poly_primitive,
                                     poly_trim, sign_at, sign_at_dyadic,
                                     square_free_decomposition, taylor_shift)


# -- references: cofactor expansion, Fraction division, Sturm chains ------------

def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_neg(p):
    return [-c for c in p]


def char_poly_cofactor(rows):
    """det(xI - M) by naive cofactor expansion; an independent cross-check
    for small matrices only."""
    n = len(rows)
    entries = [[([-rows[i][j]] if i != j else [-rows[i][j], 1]) for j in range(n)]
               for i in range(n)]

    def det(mat):
        m = len(mat)
        if m == 0:
            return [1]
        if m == 1:
            return mat[0][0]
        total = []
        for j in range(m):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = poly_mul(mat[0][j], det(minor))
            total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
        return total

    out = det(entries)
    return out + [0] * (n + 1 - len(out))


def _poly_divmod(p, q):
    """Quotient and remainder over the rationals."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in p]
    d = len(q) - 1
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(r) - d)
    while len(poly_trim(r)) - 1 >= d and poly_trim(r):
        r = poly_trim(r)
        k = len(r) - 1 - d
        c = r[-1] / lead
        quot[k] = c
        for i in range(len(q)):
            r[k + i] -= c * Fraction(q[i])
        r = r[:-1]
    return poly_trim(quot), poly_trim(r)


def _clear_denominators(p):
    """Scale a rational polynomial to a primitive integer polynomial."""
    den = 1
    for c in p:
        den = math.lcm(den, Fraction(c).denominator)
    return poly_primitive([int(Fraction(c) * den) for c in p])


def _sturm_chain(p):
    chain = [[Fraction(c) for c in poly_trim(p)]]
    d = poly_deriv(chain[0])
    if d:
        chain.append(d)
    while poly_trim(chain[-1]) and len(chain) >= 2:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_neg(r))
    return chain


def _int_sturm_chain(p):
    """The Sturm chain of an integer p in integers, fast at the degrees of
    Markov characteristic polynomials where the Fraction chain takes
    minutes: a primitive remainder sequence that
    divides only by the positive content and pseudo-divides only by a copy
    of the divisor with a positive lead.  Every entry is then a positive
    multiple of the matching :func:`_sturm_chain` entry, with the same signs."""
    def content_free(q):
        g = poly_content(q)
        return [c // g for c in q]

    chain = [content_free(poly_trim(list(p)))]
    d = poly_deriv(chain[0])
    if d:
        chain.append(content_free(d))
    while len(chain) >= 2:
        b = chain[-1]
        r = _int_pseudo_rem(chain[-2], b if b[-1] > 0 else poly_neg(b))
        if not r:
            break
        chain.append(content_free(poly_neg(r)))
    return chain


def _sturm_count(chain, lo, hi):
    """Number of distinct real roots in (lo, hi] of a squarefree polynomial."""
    def variations(x):
        x = Fraction(x)
        signs = [s > 0 for s in (sign_at(q, x.numerator, x.denominator)
                                 for q in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def _cauchy_bound(p):
    """All real roots of p lie in [-B, B]."""
    return 1 + max(abs(Fraction(c)) for c in p[:-1]) / abs(Fraction(p[-1]))


def _sturm_bracket(p, tol):
    """Bracket (lo, hi] no wider than tol of the largest root of a
    squarefree p in [0, inf), or None when there is none: Sturm counts and
    Fraction bisection."""
    chain = _sturm_chain(p)
    lo, hi = Fraction(0), _cauchy_bound(p)
    if _sturm_count(chain, lo, hi) == 0:
        return (lo, lo) if p[0] == 0 else None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _sturm_count(chain, mid, hi):
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- characteristic polynomial: two independent routes -------------------------

def test_charpoly_known_2x2():
    # companion of x^2 - x - 1
    assert berkowitz_char_poly([[1, 1], [1, 0]]) == [-1, -1, 1]


def test_charpoly_identity():
    assert berkowitz_char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [-1, 3, -3, 1]


def test_charpoly_empty_matrix():
    assert berkowitz_char_poly([]) == [1]


def test_charpoly_vs_cofactor_oracle_random():
    rng = random.Random(99)
    for n in range(1, 6):
        for _ in range(8):
            M = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
            assert berkowitz_char_poly(M) == char_poly_cofactor(M)


def test_charpoly_vs_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(123)
    for n in (3, 5, 7):
        M = [[rng.randrange(0, 2) for _ in range(n)] for _ in range(n)]
        lam = sp.symbols("lam")
        want = [int(c) for c in reversed(sp.Matrix(M).charpoly(lam).all_coeffs())]
        assert berkowitz_char_poly(M) == want


def test_charpoly_size_cap():
    with pytest.raises(ResourceLimitError):
        berkowitz_char_poly([[0] * (CHAR_POLY_SIZE_CAP + 1)
                             for _ in range(CHAR_POLY_SIZE_CAP + 1)])


def test_charpoly_det_trace_consistency():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(2, 6)
        M = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
        char = berkowitz_char_poly(M)
        trace = sum(M[i][i] for i in range(n))
        assert char[n] == 1  # monic
        assert char[n - 1] == -trace
        # char(0) = det(-M) = (-1)^n det(M)
        det = _det_int(M)
        assert char[0] == (-1) ** n * det


def _sparse_01_matrices(max_n, max_per_row):
    """0/1 matrices with at most ``max_per_row`` nonzeros in each row."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), max_size=max_per_row).map(
            lambda cols: [1 if j in cols else 0 for j in range(n)]),
        min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(M=_sparse_01_matrices(7, 2))
def test_sparse_berkowitz_matches_cofactor(M):
    assert berkowitz_char_poly(M) == char_poly_cofactor(M)


@settings(max_examples=25, deadline=None)
@given(M=_sparse_01_matrices(30, 4))
def test_sparse_berkowitz_matches_sympy(M):
    sp = pytest.importorskip("sympy")
    lam = sp.symbols("lam")
    want = [int(c) for c in reversed(sp.Matrix(M).charpoly(lam).all_coeffs())]
    assert berkowitz_char_poly(M) == want


def _det_int(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det_int(minor)
    return total


# -- gcd / square-free ----------------------------------------------------------

def test_poly_gcd_int():
    # (x-1)(x+2) and (x-1)(x-3) share (x-1)
    p = poly_mul([-1, 1], [2, 1])
    q = poly_mul([-1, 1], [-3, 1])
    assert poly_gcd_int(p, q) == [-1, 1]


def test_square_free_decomposition_double_factor():
    # x (x^2 - x - 1)^2
    sq = poly_mul([-1, -1, 1], [-1, -1, 1])
    p = poly_mul([0, 1], sq)
    decomp = square_free_decomposition(p)
    assert ([0, 1], 1) in decomp
    assert ([-1, -1, 1], 2) in decomp


def _fraction_square_free(p):
    """The square-free decomposition with Fraction division, as a reference."""
    p = poly_primitive(p)
    out = []
    g = poly_gcd_int(p, poly_deriv(p))
    c = _clear_denominators(_poly_divmod(p, g)[0])
    i = 1
    while len(g) > 1:
        d = poly_gcd_int(c, g)
        s = _clear_denominators(_poly_divmod(c, d)[0])
        if len(s) > 1:
            out.append((s, i))
        c = d
        g = _clear_denominators(_poly_divmod(g, d)[0])
        i += 1
    if len(c) > 1:
        out.append((c, i))
    return out


_integer_factors = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(
    lambda f: f[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(factors=st.lists(st.tuples(_integer_factors, st.integers(1, 3)),
                        min_size=1, max_size=3),
       content=st.sampled_from([1, -1, 6]))
def test_square_free_decomposition_on_integer_products(factors, content):
    p = [content * c for c in _product([f for f, k in factors for _ in range(k)])]
    decomp = square_free_decomposition(p)
    assert decomp == _fraction_square_free(p)
    assert _product([g for g, i in decomp for _ in range(i)]) == poly_primitive(p)
    for g, _ in decomp:
        assert poly_gcd_int(g, poly_deriv(g)) == [1]


def test_exact_quotient_rejects_a_remainder():
    assert polyexact._exact_quotient(poly_mul([1, 2], [3, 1, 1]), [1, 2]) == [3, 1, 1]
    with pytest.raises(AssertionError):
        polyexact._exact_quotient([0, 0, 1], [1, 2])  # x^2 by 2x + 1
    with pytest.raises(AssertionError):
        polyexact._exact_quotient([1, 0, 1], [1, 1])  # x^2 + 1 by x + 1


def test_poly_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        p = [Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(2, 7))]
        q = [Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 4))]
        if not any(q):
            continue
        quo, rem = _poly_divmod(p, q)
        recon = [a + b for a, b in
                 zip(poly_mul(quo, q) + [0] * 10, rem + [0] * 10)]
        want = [Fraction(c) for c in p] + [0] * (10 - len(p))
        assert recon[:10] == want[:10]


# -- Sturm reference / roots on [0, inf) ------------------------------------------

def test_sturm_counts_roots():
    # (x - 1/2)(x - 2)(x + 3)
    p = poly_mul(poly_mul([-1, 2], [-2, 1]), [3, 1])
    chain = _sturm_chain(p)
    B = _cauchy_bound(p)
    assert _sturm_count(chain, -B, B) == 3
    assert _sturm_count(chain, Fraction(0), Fraction(1)) == 1
    assert _sturm_count(chain, Fraction(1), B) == 1


@settings(max_examples=80, deadline=None)
@given(roots=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=64),
                      min_size=1, max_size=5),
       quad=st.tuples(st.integers(-3, 3), st.integers(-3, 5)).map(
           lambda bc: [bc[1], bc[0], 1]))
@example(roots=[Fraction(1, 2), Fraction(2), Fraction(-3)], quad=[1, 0, 1])
def test_integer_sturm_chain_is_a_positive_multiple_of_the_fraction_chain(roots, quad):
    # the inputs of the Sturm reference tests; repeated roots included
    p = _product([_clear_denominators([-r, 1]) for r in roots] + [quad])
    ref, chain = _sturm_chain(p), _int_sturm_chain(p)
    assert len(chain) == len(ref)
    for q, f in zip(chain, ref):
        assert all(type(c) is int for c in q) and len(q) == len(f)
        ratio = Fraction(f[-1]) / q[-1]
        assert ratio > 0 and all(Fraction(a) == ratio * b for a, b in zip(f, q))


def test_isolate_largest_real_root():
    p = [-1, -1, 1]  # x^2 - x - 1, largest root = golden ratio
    lo, hi = _sturm_bracket(p, Fraction(1, 4))
    assert lo < Fraction(1618, 1000) < hi
    r, lo, hi = largest_real_root(p, tol=1e-14)
    assert abs(r - (1 + 5 ** 0.5) / 2) < 1e-13
    assert poly_eval(p, lo) < 0 < -poly_eval(p, hi) or poly_eval(p, lo) * poly_eval(p, hi) < 0


def test_largest_real_root_prefers_rightmost():
    # roots at -5, 0.1, 3
    p = poly_mul(poly_mul([5, 1], [Fraction(-1, 10), 1]), [-3, 1])
    p = _clear_denominators(p)
    r, _, _ = largest_real_root(p)
    assert abs(r - 3) < 1e-10


def test_no_real_roots():
    with pytest.raises(InvalidParameterError):
        largest_real_root([1, 0, 1])  # x^2 + 1


@pytest.mark.parametrize("p", [[1, 1, 1], [1, 0, 1], [1, 1, 1, 1]])
def test_no_sign_variation_raises_before_seeding(p):
    # x^2 + x + 1, x^2 + 1 and x^3 + x^2 + x + 1, the factors of Markov
    # characteristic polynomials that have no positive root: no sign variation,
    # so neither the seed nor the bisection is tried
    with mock.patch.object(polyexact, "_seed_bracket", side_effect=AssertionError), \
            mock.patch.object(polyexact, "_vca_bracket", side_effect=AssertionError):
        with pytest.raises(InvalidParameterError):
            largest_real_root(p)
        # with the factor x, 0 is the largest root in [0, inf)
        assert largest_real_root([0] + p) == (0.0, 0, 0)


def _product(factors):
    p = [1]
    for f in factors:
        p = poly_mul(p, f)
    return p


def _assert_brackets_same_root(p, tol):
    """largest_real_root brackets the root the Sturm reference brackets, and
    no other root, or raises where the reference finds no root in [0, inf)."""
    ref = _sturm_bracket(p, Fraction(tol))
    if ref is None:
        with pytest.raises(InvalidParameterError):
            largest_real_root(p, tol=tol)
        return
    r, lo, hi = largest_real_root(p, tol=tol)
    assert 0 <= lo and max(lo, ref[0]) <= min(hi, ref[1])
    assert lo == hi or _sturm_count(_sturm_chain(p), lo, hi) == 1
    s_lo = sign_at(p, lo.numerator, lo.denominator)
    s_hi = sign_at(p, hi.numerator, hi.denominator)
    assert s_lo * s_hi < 0 or s_lo == 0 or s_hi == 0
    assert hi - lo <= Fraction(tol)
    assert float(lo) <= r <= float(hi)


def _without_seed():
    """Force the Vincent-Collins-Akritas bisection of largest_real_root."""
    return mock.patch.object(polyexact, "_seed_bracket", return_value=None)


def _irreducible_quadratics():
    # x^2 + b x + c with a discriminant that is not a square: no rational roots
    return st.tuples(st.integers(-3, 3), st.integers(-3, 5)).filter(
        lambda bc: bc[0] ** 2 - 4 * bc[1] < 0
        or math.isqrt(bc[0] ** 2 - 4 * bc[1]) ** 2 != bc[0] ** 2 - 4 * bc[1]
    ).map(lambda bc: [bc[1], bc[0], 1])


_rational_roots = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    min_size=1, max_size=5, unique=True)


@settings(max_examples=80, deadline=None)
@given(roots=_rational_roots, quad=_irreducible_quadratics(),
       tol=st.sampled_from([1e-8, 1e-13, 1e-14]), seeded=st.booleans())
@example(roots=[Fraction(-1), Fraction(0)], quad=[-1, 1, 1], tol=1e-13, seeded=False)
@example(roots=[Fraction(-2), Fraction(-1, 3)], quad=[1, -1, 1], tol=1e-13, seeded=True)
def test_largest_real_root_matches_sturm_reference(roots, quad, tol, seeded):
    # seeded=False disables the Newton seed, so the bisection isolates the root
    p = _product([_clear_denominators([-r, 1]) for r in roots] + [quad])
    with contextlib.nullcontext() if seeded else _without_seed():
        _assert_brackets_same_root(p, tol)


@settings(max_examples=20, deadline=None)
@given(base=st.fractions(min_value=-4, max_value=4, max_denominator=64),
       gap=st.integers(1, 10), quad=_irreducible_quadratics())
def test_largest_real_root_close_roots(base, gap, quad):
    # the two largest roots lie closer than 1e-6 apart
    top = base + Fraction(gap, 10 ** 7)
    p = _product([_clear_denominators([-base, 1]), _clear_denominators([-top, 1]), quad])
    _assert_brackets_same_root(p, 1e-13)


def test_largest_real_root_close_roots_use_vca(monkeypatch):
    # roots 1/2 and 1/2 + 1e-8 both sit inside the seed pad: two sign
    # variations, so the Vincent-Collins-Akritas bisection isolates the root
    calls = []
    original = polyexact._vca_bracket
    monkeypatch.setattr(polyexact, "_vca_bracket",
                        lambda p, e: calls.append(p) or original(p, e))
    p = poly_mul([-1, 2], _clear_denominators([-(Fraction(1, 2) + Fraction(1, 10 ** 8)), 1]))
    r, lo, hi = largest_real_root(p, tol=1e-13)
    assert calls == [p]
    assert Fraction(1, 2) < lo <= Fraction(1, 2) + Fraction(1, 10 ** 8) <= hi


def test_vca_isolates_roots_closer_than_the_grid():
    # roots 1/3 and 1/3 + 2**-60, far closer than the grid step 2**-44 of
    # tol 1e-13: the bracket is taken on the finer grid that isolates
    top = Fraction(1, 3) + Fraction(1, 2 ** 60)
    p = poly_mul([-1, 3], _clear_denominators([-top, 1]))
    r, lo, hi = largest_real_root(p, tol=1e-13)
    assert Fraction(1, 3) < lo < top <= hi and hi - lo <= Fraction(1e-13)
    assert r == float(top)


@pytest.mark.parametrize("seed", [1.0, 2.999, 3.5, -1.0])
def test_largest_real_root_rejects_a_wrong_seed(monkeypatch, seed):
    # roots 1 and 3 plus a complex pair; a seed bracket around the smaller
    # root, below 3 or above 3 fails the Descartes certificate, and a
    # negative seed is not tried
    monkeypatch.setattr(polyexact, "_newton_seed", lambda p: seed)
    p = _product([[-1, 1], [-3, 1], [1, 0, 1]])
    r, lo, hi = largest_real_root(p, tol=1e-13)
    assert lo <= 3 <= hi and r == 3.0


def test_largest_real_root_ignores_a_negative_seed(monkeypatch):
    # (x + 1)(x - 3): a bracket around the seed -2 would end below 0, so the
    # seed is not tried and the bisection finds 3
    monkeypatch.setattr(polyexact, "_newton_seed", lambda p: -2.0)
    assert largest_real_root([-3, -2, 1], tol=1e-13) == (3.0, 3, 3)


def _01_matrices(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n))


def _seed_only():
    """Refuse the Vincent-Collins-Akritas bisection, so largest_real_root
    must take the bracket of the Newton seed."""
    return mock.patch.object(polyexact, "_vca_bracket", side_effect=AssertionError)


@settings(max_examples=80, deadline=None)
@given(M=st.one_of(_01_matrices(14), _sparse_01_matrices(14, 2)))
def test_seeded_root_of_a_01_matrix_is_the_perron_root(M):
    # the square-free part of the characteristic polynomial, as the Markov
    # engine searches it: the bracket holds exactly one of its roots and no
    # root lies above it, by exact Sturm counts, so its root is the largest
    # real eigenvalue.  (A float reference fails here: numpy puts the
    # defective eigenvalue 1 of some 12 x 12 matrices at 1 + 3.7e-9.)
    char = berkowitz_char_poly(M)
    square_free = _product(f for f, _ in square_free_decomposition(char))
    rho, lo, hi = largest_real_root(square_free, tol=1e-13)
    chain = _sturm_chain(square_free)
    assert lo == hi or _sturm_count(chain, lo, hi) == 1
    assert _sturm_count(chain, hi, _cauchy_bound(square_free)) == 0
    assert float(lo) <= rho <= float(hi)


def test_seeded_root_of_a_reversed_tower_polynomial():
    # x^n d(1/x) for the tower determinant d of the left hole [316/317, 1]:
    # degree 316, with the root 1/r, r the determinant's leading root; the
    # Newton budget grows with the degree, so the seed still certifies
    res = entropy_left_hole(Fraction(316, 317))
    rev = poly_trim(list(res.series.polynomial)[::-1])
    assert len(rev) - 1 >= 300
    with _seed_only():
        rho, lo, hi = largest_real_root(rev, tol=1e-13)
    r_lo, r_hi = res.root.bracket
    assert lo <= 1 / Fraction(r_lo) and 1 / Fraction(r_hi) <= hi
    assert abs(rho - 1 / res.root.r) < 1e-12


def test_newton_budget_grows_with_the_degree():
    # x^400 - x - 1, the characteristic polynomial of a 400-cycle with one
    # chord: from Fujiwara's start 2 a step shrinks the gap to rho = 1.0017
    # by about 1 - 1/400, so Newton needs ~280 steps, past a fixed 200
    p = [-1, -1] + [0] * 398 + [1]
    with _seed_only():
        rho, lo, hi = largest_real_root(p, tol=1e-13)
    assert 1 < lo and hi - lo <= Fraction(1e-13) and float(lo) <= rho <= float(hi)
    assert sign_at(p, lo.numerator, lo.denominator) < 0 < sign_at(p, hi.numerator, hi.denominator)


@pytest.mark.parametrize("p", [[0, 1], [0, 0, 1], [1, 0, 1], [3, -2, 1]])
def test_newton_seed_gives_none_without_a_positive_root(p):
    # rho = 0 starts Newton at 0; from above, x^2 + 1 drives an iterate
    # below 0, and x^2 - 2x + 3 reaches a negative derivative
    assert polyexact._newton_seed(p) is None


def test_newton_seed_decreases_to_the_largest_root():
    # (x - 1)(x - 3)(x^2 + 1): Fujiwara's bound 2 * 4 = 8 is the start
    p = _product([[-1, 1], [-3, 1], [1, 0, 1]])
    assert abs(polyexact._newton_seed(p) - 3) < 1e-12
    # the sign of the lead does not matter
    assert polyexact._newton_seed([-c for c in p]) == polyexact._newton_seed(p)


def test_largest_real_root_bracket_starts_at_zero():
    # the root 1e-15 lies within the seed pad of 0; at tol 100 the seed
    # bracket needs no bisection, so it must start at 0 already
    r, lo, hi = largest_real_root([-1, 10 ** 15], tol=100)
    assert lo == 0 < Fraction(1, 10 ** 15) <= hi and r == 1e-15


def test_largest_real_root_dyadic_root():
    # roots on the dyadic grid, where the bracket may collapse onto the root
    for p, root in (([-1, 1], 1), (poly_mul([-1, 1], [1, 0, 1]), 1), ([-3, 2], 1.5)):
        for seeded in (True, False):
            with contextlib.nullcontext() if seeded else _without_seed():
                _assert_brackets_same_root(p, 1e-13)
                assert largest_real_root(p, tol=1e-13)[0] == root


def test_largest_real_root_rejects_bad_tol():
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            largest_real_root([-1, -1, 1], tol=tol)


@settings(max_examples=60, deadline=None)
@given(p=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
       x=st.fractions(min_value=-8, max_value=8, max_denominator=1000),
       c=st.integers(-1000, 1000))
def test_sign_at_and_taylor_shift_match_fraction_evaluation(p, x, c):
    value = poly_eval(p, x)
    assert sign_at(p, x.numerator, x.denominator) == (value > 0) - (value < 0)
    shifted = taylor_shift(p, c)
    assert poly_eval(shifted, x) == poly_eval(p, x + c)


def test_poly_trim_drops_only_trailing_zeros():
    p = [1, 0, -1]
    assert poly_trim(p) is p
    assert poly_trim([1, 0, -1, 0, 0]) == [1, 0, -1]
    assert poly_trim((0, 2, 0)) == (0, 2)
    assert poly_trim([0, 0]) == [] and poly_trim([]) == []


def _sparse_terms(dense):
    return [(k, c) for k, c in enumerate(dense) if c]


# sparse integer polynomials as dense lists: a few nonzero terms at random
# exponents below 300, coefficients mostly +-1 as in the tower determinant
_sparse_polys = st.dictionaries(
    st.integers(0, 300),
    st.one_of(st.sampled_from([-1, 1]), st.integers(-2 ** 70, 2 ** 70)),
    min_size=1, max_size=12).map(
        lambda d: [d.get(k, 0) for k in range(max(d) + 1)])


@st.composite
def _dyadic_points(draw, lo=0, hi=1):
    shift = draw(st.integers(0, 140))
    num = draw(st.integers(lo << shift, hi << shift))
    return num, shift


@settings(max_examples=150, deadline=None)
@given(p=_sparse_polys, point=st.one_of(_dyadic_points(), _dyadic_points(-2, 2)))
def test_sign_at_dyadic_matches_sign_at(p, point):
    num, shift = point
    assert sign_at_dyadic(_sparse_terms(p), num, shift) == sign_at(p, num, 1 << shift)


@settings(max_examples=80, deadline=None)
@given(p=_sparse_polys, point=_dyadic_points())
def test_sign_at_dyadic_exact_root_needs_the_exact_fallback(p, point):
    # x = num / 2**shift is an exact root of (2**shift * x - num) * p, so the
    # fixed-point sum cannot clear its error bound and shift-Horner decides
    num, shift = point
    q = poly_mul([-num, 1 << shift], p)
    assert sign_at_dyadic(_sparse_terms(q), num, shift) == 0
    assert sign_at(q, num, 1 << shift) == 0


def test_sign_at_dyadic_near_root_and_edges():
    golden = [1, -1, -1]  # root (sqrt 5 - 1) / 2
    lo = (math.sqrt(5) - 1) / 2
    for x in (lo, math.nextafter(lo, 0), math.nextafter(lo, 1), 0.0, 1.0):
        num, den = x.as_integer_ratio()
        assert sign_at_dyadic(_sparse_terms(golden), num, den.bit_length() - 1) \
            == sign_at(golden, num, den)
    assert sign_at_dyadic([], 3, 2) == 0
    # x below 2**-96 truncates to zero in the fixed-point pass
    assert sign_at_dyadic([(0, 0), (1, 1)], 1, 200) == 1


def _with_sign_change(p):
    """p with its constant made positive and one more top term that brings
    p(1) to -1, so p(0) > 0 > p(1)."""
    q = [abs(p[0]) or 1] + p[1:]
    return q + [-sum(q) - 1]


@settings(max_examples=150, deadline=None)
@given(poly=_sparse_polys.map(_with_sign_change), tol=st.floats(1e-20, 0.1))
@example(poly=[1, -2], tol=1e-3)  # the first midpoint is the root 1/2
@example(poly=[3, 0, -4], tol=1e-20)  # an irrational root, below the spacing
@example(poly=[3, -4], tol=1e-20)  # the dyadic root 3/4
def test_float_bisection_holds_the_sign_change(poly, tol):
    # the exact-sign bisection on floats that the tower falls back to: it
    # ends at width <= tol, at adjacent floats, or at an exact zero, and it
    # holds a sign change of the polynomial, by dense integer Horner
    lo, hi = polyexact._bisect(polyexact._SparseForm(poly).exact, 0.0, 1.0, tol,
                               lambda a, b: 0.5 * (a + b))
    s_lo, s_hi = (sign_at(poly, *x.as_integer_ratio()) for x in (lo, hi))
    if lo == hi:
        assert s_lo == 0
    else:
        assert 0 <= lo < hi <= 1
        assert hi - lo <= tol or math.nextafter(lo, 1.0) == hi
        assert s_lo > 0 > s_hi


@pytest.mark.parametrize("p", [
    [-1, -1, 1],  # golden: x^2 - x - 1
    [-1, -1, -1, 1],  # tribonacci
    [-3, 0, 1],  # sqrt 3
    [-1, -1] + [0] * 398 + [1],  # x^400 - x - 1
])
def test_a_wrong_seed_cell_falls_back_to_the_exact_loop(monkeypatch, p):
    # the seed moved by 1e-9 still passes the Descartes certificate (pad
    # 1e-7), with another bracket; exact bisection ends in the same cell,
    # the one cell of one grid unit that holds the root
    want = largest_real_root(p, tol=1e-13)
    assert want[2] - want[1] == Fraction(1, 2 ** 44)
    seed_of = polyexact._newton_seed
    moved = []
    monkeypatch.setattr(polyexact, "_newton_seed",
                        lambda q: moved.append(seed_of(q) * (1 + 1e-9)) or moved[-1])
    with _seed_only():
        assert largest_real_root(p, tol=1e-13) == want
    assert len(moved) == 1


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-300, 1.0, exclude_max=True))
def test_negated_log_bracket_is_the_tower_interval(x):
    # the tower's interval is log_bracket negated and swapped; negation is
    # exact and nextafter is symmetric, so it equals the direct rounding
    below, above = polyexact.log_bracket(x, x)
    assert -above == math.nextafter(-math.log(x), -math.inf)
    assert -below == math.nextafter(-math.log(x), math.inf)


def test_vca_root_zero_on_the_left_end():
    # x (17x - 1)(x^2 + 1): the search starts on (0, 2**b], whose left end
    # is the root 0, so it splits until the interval of 1/17 excludes it
    p = _product([[0, 1], [-1, 17], [1, 0, 1]])
    for seeded in (True, False):
        with contextlib.nullcontext() if seeded else _without_seed():
            r, lo, hi = largest_real_root(p, tol=1e-13)
        assert 0 < lo <= Fraction(1, 17) <= hi and hi - lo <= Fraction(1e-13)
        assert r == pytest.approx(1 / 17, abs=1e-13)


# -- integer matrices ---------------------------------------------------------------

def test_int_matmul():
    assert int_matmul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert int_matmul([[1, 2, 3]], [[1], [0], [-1]]) == [[-2]]


def test_integer_rank_double_pole_matrix():
    # the 5-state matrix with char poly x (x^2-x-1)^2; m = x^2 - x - 1 is the
    # minimal polynomial of rho, and rank m(M)^q = 5 - 2 dim ker (M - rho I)^q
    M = [[1, 1, 1, 0, 0],
         [0, 0, 0, 1, 1],
         [1, 0, 0, 0, 0],
         [0, 1, 0, 0, 0],
         [0, 0, 0, 1, 1]]
    M2 = int_matmul(M, M)
    G = [[M2[i][j] - M[i][j] - (i == j) for j in range(5)] for i in range(5)]
    G2 = int_matmul(G, G)
    ranks = tuple(int_matrix_rank(P) for P in (G, G2, int_matmul(G2, G)))
    assert ranks == (3, 1, 1)


def _fraction_rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), k=st.integers(0, 6),
       data=st.data())
def test_int_matrix_rank_matches_fraction_elimination(n, m, k, data):
    # a product of n x k and k x m factors has rank at most k, so low ranks,
    # zero columns and skipped pivots all occur
    entries = st.integers(-3, 3)
    A = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    B = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    P = int_matmul(A, B) if k else [[0] * m for _ in range(n)]
    assert int_matrix_rank(P) == _fraction_rank(P) <= min(n, m, k)


def test_int_matrix_rank_edges():
    assert int_matrix_rank([]) == 0
    assert int_matrix_rank([[0, 0], [0, 0]]) == 0
    assert int_matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert int_matrix_rank([[0, 2], [0, 3]]) == 1
