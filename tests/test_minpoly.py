from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holed_entropy import minpoly
from holed_entropy.minpoly import (certify_irreducible, cyclotomic,
                                   min_poly_of_root, strip_cyclotomic)
from holed_entropy.polyexact import poly_mul, poly_primitive


def _product(factors):
    return reduce(poly_mul, factors, [1])


def test_cyclotomic_products_give_x_n_minus_1():
    for n in range(1, 61):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert _product([cyclotomic(d) for d in divisors]) == [-1] + [0] * (n - 1) + [1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


@settings(max_examples=60, deadline=None)
@given(orders=st.sets(st.integers(1, 40), max_size=4), with_x=st.booleans(),
       rest=st.sampled_from([[1], [-1, -1, 1], [-1, -1, 0, 1], [-2, 1], [1, 3, 0, 1]]))
def test_strip_cyclotomic_keeps_only_the_rest(orders, with_x, rest):
    p = _product([cyclotomic(n) for n in orders] + [rest] + [[0, 1]] * with_x)
    assert strip_cyclotomic(p) == rest


_nonconstant_polys = st.lists(st.integers(-5, 5), min_size=2, max_size=5).filter(
    lambda f: f[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(a=_nonconstant_polys, b=_nonconstant_polys)
@example(a=[-2, 0, 1], b=[-3, 0, 1])
@example(a=[-1, -1, 1], b=[-1, -1, 1])
def test_certificate_never_certifies_a_product(a, b):
    # the degrees of a and b are subset sums of every pattern it reads
    assert not certify_irreducible(poly_primitive(poly_mul(a, b)))


@settings(max_examples=80, deadline=None)
@given(f=st.lists(st.integers(-9, 9), min_size=2, max_size=8).filter(lambda f: f[-1] != 0))
@example(f=[1, 0, -10, 0, 1])  # irreducible, split modulo every prime
@example(f=[-1, -1, 0, 1])
def test_certificate_agrees_with_sympy(f):
    sp = pytest.importorskip("sympy")
    f = poly_primitive(f)
    x = sp.Symbol("x")
    _, factors = sp.factor_list(sp.Poly(list(reversed(f)), x))
    if certify_irreducible(f):
        assert len(factors) == 1 and factors[0][1] == 1


def test_degree_patterns_of_swinnerton_dyer():
    # x^4 - 10 x^2 + 1 splits into factors of degree at most 2 modulo every
    # prime, so the degree sum 2 survives every pattern (its discriminant is
    # 2**14 * 3**2, so it is square-free modulo the primes from 5 on)
    for p in minpoly._MUSSER_PRIMES[1:]:
        pattern = minpoly._degree_pattern([1 % p, 0, -10 % p, 0, 1], p)
        assert sum(pattern) == 4 and max(pattern) <= 2
    # x^3 - x - 1 is irreducible modulo 3 and has the root 2 modulo 5
    assert minpoly._degree_pattern([2, 2, 0, 1], 3) == [3]
    assert minpoly._degree_pattern([4, 4, 0, 1], 5) == [1, 2]


def test_swinnerton_dyer_falls_back():
    # irreducible over the integers, but split modulo every prime: no
    # degree-set certificate exists, so sympy has to name it
    sd = [1, 0, -10, 0, 1]
    assert not certify_irreducible(sd)
    pytest.importorskip("sympy")
    assert min_poly_of_root(sd, Fraction(314, 100), Fraction(315, 100)) == sd
