import json
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holed_entropy import (Hole, InvalidParameterError, LocallyConstantWeight,
                           build_d_adic, build_orbit, build_scaled_farey,
                           entropy_left_hole, hole_dist, map_from_config,
                           map_to_config, restrict_partition)
from holed_entropy import mapmodel
from holed_entropy.mapmodel import (D_ADIC_MAX, Affine, Branch, IntervalOpen,
                                    Moebius, PiecewiseMap)


def ex(x):
    return Fraction(x)


def H(*pieces):
    return Hole([(ex(lo), ex(hi)) for lo, hi in pieces])


# -- builders ---------------------------------------------------------------

def test_doubling_branches():
    m = build_d_adic(2)
    assert len(m.branches) == 2
    b0, b1 = m.branches
    assert b0.kind.slope == 2 and b0.kind.offset == 0
    assert b1.kind.slope == 2 and b1.kind.offset == -1
    assert b0.domain.as_raw() == (Fraction(0), Fraction(1, 2))
    assert b1.domain.as_raw() == (Fraction(1, 2), Fraction(1))


def test_triadic_offsets():
    m = build_d_adic(3)
    assert [b.kind.offset for b in m.branches] == [0, -1, -2]
    assert all(b.kind.slope == 3 for b in m.branches)


def test_d_adic_rejects_small_d():
    with pytest.raises(InvalidParameterError):
        build_d_adic(1)


def test_d_adic_rejects_large_d_before_building(monkeypatch):
    assert len(build_d_adic(D_ADIC_MAX).branches) == D_ADIC_MAX

    def unreachable(*args):
        raise AssertionError("a branch was built")

    monkeypatch.setattr(mapmodel, "Branch", unreachable)
    for d in (D_ADIC_MAX + 1, 10 ** 11):
        with pytest.raises(InvalidParameterError):
            build_d_adic(d)


def test_d_adic_full_images():
    for d in (2, 3, 5):
        m = build_d_adic(d)
        for b in m.branches:
            assert b.image_raw() == (Fraction(0), Fraction(1))


def test_farey_evaluations():
    m = build_scaled_farey(ex(1))
    left, right = m.branches
    assert left.apply_raw(Fraction(1, 3)) == Fraction(1, 2)
    assert left.invert_raw(Fraction(1, 2)) == Fraction(1, 3)
    m2 = build_scaled_farey(ex(Fraction(1, 2)))
    assert m2.branches[1].apply_raw(Fraction(2, 3)) == Fraction(1, 4)


def test_farey_coefficients():
    m = build_scaled_farey(ex(Fraction(1, 2)))
    left, right = m.branches
    assert isinstance(left.kind, Moebius) and isinstance(right.kind, Moebius)
    assert (left.kind.p, left.kind.q, left.kind.r, left.kind.s) == (
        Fraction(1, 2), 0, -1, 1)
    assert (right.kind.p, right.kind.q, right.kind.r, right.kind.s) == (
        Fraction(-1, 2), Fraction(1, 2), 1, 0)
    assert left.orientation == 1 and right.orientation == -1


def test_farey_rejects_out_of_range():
    for bad in (0, Fraction(3, 2), -1):
        with pytest.raises(InvalidParameterError):
            build_scaled_farey(ex(bad))


def test_farey_derivative_closed_form():
    # left branch derivative a/(1-x)^2
    m = build_scaled_farey(ex(1))
    x = Fraction(1, 2)
    assert m.branches[0].derivative_raw(x) == Fraction(1) / (1 - x) ** 2 == 4


# -- branch and map validation ---------------------------------------------

def test_branch_inverse_roundtrip_exact():
    rng = random.Random(7)
    maps = [build_d_adic(2), build_d_adic(3), build_scaled_farey(ex(Fraction(4, 5)))]
    for m in maps:
        for b in m.branches:
            lo, hi = b.domain.as_raw()
            for _ in range(25):
                x = lo + (hi - lo) * Fraction(rng.randrange(1, 64), 64)
                if not lo < x < hi:
                    continue
                assert b.invert_raw(b.apply_raw(x)) == x


def test_derivative_sign_matches_orientation():
    for m in (build_d_adic(2), build_scaled_farey(ex(Fraction(3, 5)))):
        for b in m.branches:
            lo, hi = b.domain.as_raw()
            for x in (lo, hi):
                d = b.derivative_raw(x)
                assert (d > 0) == (b.orientation == 1)


def test_moebius_pole_inside_domain_rejected():
    dom = IntervalOpen(ex(0), ex(1))
    with pytest.raises(InvalidParameterError):
        # pole at 1/2
        Branch(dom, Moebius(ex(1), ex(0), ex(2), ex(-1)))


def test_overlapping_domains_rejected():
    I = IntervalOpen(ex(0), ex(1))
    b1 = Branch(IntervalOpen(ex(0), ex(Fraction(2, 3))),
                Affine(ex(1), ex(0)))
    b2 = Branch(IntervalOpen(ex(Fraction(1, 3)), ex(1)),
                Affine(ex(1), ex(0)))
    with pytest.raises(InvalidParameterError):
        PiecewiseMap(I, (b1, b2))


def test_image_escaping_codomain_rejected():
    I = IntervalOpen(ex(0), ex(1))
    with pytest.raises(InvalidParameterError):
        PiecewiseMap(I, (Branch(IntervalOpen(ex(0), ex(1)), Affine(ex(3), ex(0))),))


# -- holes -------------------------------------------------------------------

def test_hole_normalization_merges_touching():
    h = H((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)))
    assert h.pieces == ((Fraction(1, 4), Fraction(3, 4)),)


def test_hole_normalization_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        pieces = []
        for _ in range(rng.randrange(0, 5)):
            lo = Fraction(rng.randrange(0, 60), 64)
            hi = lo + Fraction(rng.randrange(0, 64 - int(lo * 64)), 64)
            pieces.append((lo, hi))
        h = Hole([(ex(a), ex(b)) for a, b in pieces])
        again = Hole([(ex(a), ex(b)) for a, b in h.pieces])
        assert again.pieces == h.pieces


def test_degenerate_pieces_allowed():
    h = H((Fraction(1, 3), Fraction(1, 3)))
    assert h.pieces == ((Fraction(1, 3), Fraction(1, 3)),)
    assert h.measure() == 0


def test_hole_dist_examples():
    assert hole_dist(H((Fraction(1, 5), Fraction(2, 5))),
                     H((Fraction(3, 10), Fraction(1, 2)))) == Fraction(1, 5)
    h = H((Fraction(0), Fraction(1, 4)))
    assert hole_dist(h, h) == 0
    assert hole_dist(H((Fraction(0), Fraction(1, 4))),
                     H((Fraction(1, 2), Fraction(3, 4)))) == Fraction(1, 2)


def _random_hole(rng):
    pieces = []
    for _ in range(rng.randrange(0, 4)):
        lo = Fraction(rng.randrange(0, 96), 96)
        hi = min(Fraction(1), lo + Fraction(rng.randrange(0, 32), 96))
        pieces.append((ex(lo), ex(hi)))
    return Hole(pieces)


def test_hole_dist_pseudometric_properties():
    rng = random.Random(2024)
    holes = [_random_hole(rng) for _ in range(40)]
    for h in holes:
        assert hole_dist(h, h) == 0
    for _ in range(300):
        h1, h2, h3 = rng.choice(holes), rng.choice(holes), rng.choice(holes)
        d12 = hole_dist(h1, h2)
        assert d12 == hole_dist(h2, h1)
        assert d12 >= 0
        assert d12 <= hole_dist(h1, h3) + hole_dist(h3, h2)


# -- restrict_partition -------------------------------------------------------

def test_restrict_partition_right_hole():
    m = build_d_adic(2)
    parts = restrict_partition(m, H((Fraction(3, 4), Fraction(1))))
    assert [p.as_raw() for p in parts] == [
        (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4))]


def test_restrict_partition_interior_hole():
    m = build_d_adic(2)
    parts = restrict_partition(m, H((Fraction(3, 4), Fraction(5, 6))))
    assert [p.as_raw() for p in parts] == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(5, 6), Fraction(1))]


def test_restrict_partition_total_escape():
    m = build_d_adic(2)
    assert restrict_partition(m, H((Fraction(0), Fraction(1)))) == []


# -- JSON configuration -------------------------------------------------------

def test_config_roundtrip_exact():
    m = build_scaled_farey(ex(Fraction(4, 5)))
    h = H((Fraction(1, 3), Fraction(1, 2)))
    cfg = map_to_config(m, h)
    text = json.dumps(cfg, sort_keys=True)
    m2, h2 = map_from_config(json.loads(text))
    assert map_to_config(m2, h2) == cfg
    assert h2.pieces == h.pieces


def _moebius_through(a, b, w1, w2, k):
    """The Moebius map with a -> w1 and b -> w2 whose pole lies outside
    [a, b]: t -> k t / (1 + (k - 1) t) on t = (x - a) / (b - a), k > 0."""
    L = b - a
    p = k * w2 - w1
    return Moebius(ex(p), ex(w1 * L - p * a), ex(k - 1), ex(L - (k - 1) * a))


@st.composite
def exact_maps_and_holes(draw):
    rationals = st.builds(Fraction, st.integers(0, 48), st.just(48))
    cuts = sorted(draw(st.sets(rationals, min_size=2, max_size=6)))
    domains = list(zip(cuts, cuts[1:]))
    # dropped domains leave gaps between branches
    keep = draw(st.lists(st.booleans(), min_size=len(domains),
                         max_size=len(domains)).filter(any))
    branches = []
    for (a, b), kept in zip(domains, keep):
        if not kept:
            continue
        w1, w2 = draw(st.lists(rationals, min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            slope = (w2 - w1) / (b - a)
            kind = Affine(ex(slope), ex(w1 - slope * a))
        else:
            k = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
            kind = _moebius_through(a, b, w1, w2, k)
        branches.append(Branch(IntervalOpen(ex(a), ex(b)), kind))
    pmap = PiecewiseMap(IntervalOpen(ex(0), ex(1)), tuple(branches))
    pieces = draw(st.lists(st.lists(rationals, min_size=2, max_size=2), max_size=3))
    return pmap, H(*(sorted(p) for p in pieces))


@settings(max_examples=60, deadline=None)
@given(exact_maps_and_holes())
def test_config_roundtrip_is_stable(case):
    pmap, hole = case
    text = json.dumps(map_to_config(pmap, hole), sort_keys=True)
    for _ in range(2):
        pmap2, hole2 = map_from_config(json.loads(text))
        assert pmap2 == pmap and hole2.pieces == hole.pieces
        again = json.dumps(map_to_config(pmap2, hole2), sort_keys=True)
        assert again == text
        text = again


def test_config_decimal_strings_parse_exactly():
    cfg = {
        "codomain": ["0", "1"],
        "branches": [{"domain": ["0", "0.5"], "kind": "affine", "coeffs": ["2", "0"]},
                     {"domain": ["0.5", "1"], "kind": "affine", "coeffs": ["2", "-1"]}],
        "hole": [["0.75", "1"]],
    }
    m, h = map_from_config(cfg)
    assert h.pieces == ((Fraction(3, 4), Fraction(1)),)


def test_config_rejects_overlap():
    cfg = {
        "codomain": ["0", "1"],
        "branches": [{"domain": ["0", "2/3"], "kind": "affine", "coeffs": ["1", "0"]},
                     {"domain": ["1/3", "1"], "kind": "affine", "coeffs": ["1", "0"]}],
    }
    with pytest.raises(InvalidParameterError):
        map_from_config(cfg)


def test_config_rejects_nan_slope():
    # json.loads reads the bare token NaN as a float
    cfg = json.loads('{"codomain": [0, 1], "branches": ['
                     '{"domain": [0, 1], "kind": "affine", "coeffs": [NaN, 0]}]}')
    with pytest.raises(InvalidParameterError):
        map_from_config(cfg)


def test_config_float_numbers_force_float_mode():
    cfg = {
        "codomain": [0, 1],
        "branches": [{"domain": [0, 0.5], "kind": "affine", "coeffs": [2, 0]},
                     {"domain": [0.5, 1], "kind": "affine", "coeffs": [2, -1]}],
    }
    # named for the float mode these numbers used to force; they are exact now
    m, _ = map_from_config(cfg)
    assert m.branch_domains_raw() == [(Fraction(0), Fraction(1, 2)),
                                      (Fraction(1, 2), Fraction(1))]
    assert map_from_config(map_to_config(m))[0] == m


def test_config_json_numbers_are_the_decimals_they_spell():
    cfg = json.loads('{"codomain": [0, 1], "branches": ['
                     '{"domain": [0, 0.5], "kind": "affine", "coeffs": [2, 0]},'
                     '{"domain": [0.5, 1], "kind": "affine", "coeffs": [2, -1]}],'
                     '"hole": [[0.1, 0.3]]}')
    m, h = map_from_config(cfg)
    assert m.branches[0].domain.hi == Fraction(1, 2)
    # 1/10, not the binary float nearest to it
    assert h.pieces == ((Fraction(1, 10), Fraction(3, 10)),)


def test_config_rejects_the_epsilon_key():
    cfg = map_to_config(build_d_adic(2))
    cfg["epsilon"] = 1e-12
    with pytest.raises(InvalidParameterError, match="'epsilon'"):
        map_from_config(cfg)


@pytest.mark.parametrize("value", (0.5, np.float32(0.5)))
def test_float_inputs_are_refused(value):
    one = ex(1)
    for build in (lambda: IntervalOpen(ex(0), value),
                  lambda: Affine(value, one),
                  lambda: Moebius(one, value, ex(0), one),
                  lambda: Hole([(value, one)]),
                  lambda: LocallyConstantWeight((value, one)),
                  lambda: build_scaled_farey(value)):
        with pytest.raises(InvalidParameterError, match=r"float .*0\.5.* num/den"):
            build()


@pytest.mark.parametrize("value", (None, [1], Decimal("0.5")))
def test_values_that_are_not_exact_numbers_are_refused(value):
    # the exact coercion takes an int, a Fraction or a rational string only
    for build in (lambda: Hole([(value, 1)]), lambda: IntervalOpen(0, value),
                  lambda: entropy_left_hole(value), lambda: build_orbit(value)):
        with pytest.raises(InvalidParameterError, match="is not an exact value"):
            build()


@pytest.mark.parametrize("build", (
    lambda: IntervalOpen(ex(0), True),
    lambda: Affine(True, ex(0)),
    lambda: Moebius(ex(1), True, ex(0), ex(1)),
    lambda: Hole([(False, True)]),
    lambda: build_scaled_farey(True),
    lambda: LocallyConstantWeight((True, ex(1))),
), ids=("IntervalOpen", "Affine", "Moebius", "Hole", "build_scaled_farey",
        "LocallyConstantWeight"))
def test_boolean_inputs_are_refused(build):
    # each call is valid with 1 and 0 in place of True and False
    with pytest.raises(InvalidParameterError, match="boolean .* is not an exact value"):
        build()


def _pq(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _decimal(n: int, k: int) -> str:
    """n / 10**k spelled as a decimal string, e.g. (-305, 2) -> "-3.05"."""
    digits = str(abs(n)).rjust(k + 1, "0")
    text = digits[:len(digits) - k] + ("." + digits[len(digits) - k:] if k else "")
    return ("-" if n < 0 else "") + text


_ratios = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_ratios, min_size=2, max_size=2).map(sorted),
                min_size=1, max_size=4),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=2).map(sorted),
       st.integers(0, 7))
def test_hole_input_contract(pieces, nums, k):
    want = Hole([(lo, hi) for lo, hi in pieces]).pieces
    assert Hole([(ex(lo), ex(hi)) for lo, hi in pieces]).pieces == want
    assert Hole([(_pq(lo), _pq(hi)) for lo, hi in pieces]).pieces == want
    # a decimal string is the rational it spells
    lo, hi = (Fraction(n, 10 ** k) for n in nums)
    assert Hole([tuple(_decimal(n, k) for n in nums)]).pieces == ((lo, hi),)
    # a float is refused
    with pytest.raises(InvalidParameterError, match="is not an exact value"):
        Hole([(float(lo), hi)])


def test_exact_scalars_are_accepted_inputs():
    # the call pattern of bench/workloads.py, through the shim it imports
    from holed_entropy.scalar import Scalar
    a, b = Fraction(3, 4), Fraction(5, 6)
    assert type(Scalar.exact(a)) is Fraction
    assert Hole([(Scalar.exact(a), Scalar.exact(b))]).pieces == ((a, b),)
    res = entropy_left_hole(Scalar.exact(a))
    assert res.a == res.orbit.a == a
    assert res.root == entropy_left_hole(a).root
