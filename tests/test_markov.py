import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holed_entropy import (Hole, InvalidParameterError, NotFinitelyMarkovError,
                           ResourceLimitError, Scalar, build_d_adic,
                           build_scaled_farey, entropy_left_hole, entropy_markov,
                           refine, refine_markov, spectral_report, to_dot,
                           transition_matrix)
from holed_entropy import markov
from holed_entropy.markov import TransitionMatrix
from holed_entropy.minpoly import certify_irreducible, strip_cyclotomic
from holed_entropy.polyexact import (berkowitz_char_poly, char_poly_cofactor,
                                     poly_eval, poly_mul)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
GOLDEN = (1 + math.sqrt(5)) / 2


def ex(x):
    return Scalar.exact(x)


def H(*pieces):
    return Hole([(ex(lo), ex(hi)) for lo, hi in pieces])


def F(n, d=1):
    return Fraction(n, d)


# -- refinement ------------------------------------------------------------------

def test_refinement_interior_hole_breakpoints_and_states():
    ref = refine_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    assert ref.breakpoints == (F(0), F(1, 3), F(1, 2), F(2, 3), F(3, 4),
                               F(5, 6), F(1))
    assert ref.states == ((F(0), F(1, 3)), (F(1, 3), F(1, 2)), (F(1, 2), F(2, 3)),
                          (F(2, 3), F(3, 4)), (F(5, 6), F(1)))


def test_refinement_right_hole():
    ref = refine_markov(build_d_adic(2), H((F(3, 4), F(1))))
    assert ref.breakpoints == (F(0), F(1, 2), F(3, 4), F(1))
    assert ref.states == ((F(0), F(1, 2)), (F(1, 2), F(3, 4)))


def test_refinement_rejects_float_mode():
    m = build_d_adic(2)
    hole = Hole([(Scalar.approx(1 / math.pi), Scalar.approx(1.0))])
    with pytest.raises(NotFinitelyMarkovError):
        refine_markov(m, hole)


def test_refinement_orbit_cap():
    # denominator with full 2-orbit: 1/641 has multiplicative order 640 mod 641
    with pytest.raises(NotFinitelyMarkovError):
        refine_markov(build_d_adic(2), H((F(1, 641), F(1, 640))), orbit_cap=50)


def test_markov_property_holds():
    for hole in [H((F(3, 4), F(5, 6))), H((F(3, 4), F(1))), H((F(2, 3), F(1)))]:
        ref = refine_markov(build_d_adic(2), hole)
        cutset = set(ref.breakpoints)
        for (u, v), b in zip(ref.states, ref.state_branch):
            br = ref.map.branches[b]
            w1, w2 = sorted((br.apply_raw(u), br.apply_raw(v)))
            assert w1 in cutset and w2 in cutset


def reference_closure(pmap, hole, orbit_cap):
    """Round-based closure: rescan every elementary interval until a round
    adds no point.  Returns (breakpoints, states, state_branch)."""
    ilo, ihi = pmap.codomain.as_raw()
    doms = pmap.branch_domains_raw()
    points = {ilo, ihi, *(x for piece in doms + list(hole.pieces) for x in piece)}

    def owner(u, v):
        mid = (u + v) / 2
        if any(lo <= mid <= hi for lo, hi in hole.pieces):
            return None
        return next((k for k, (lo, hi) in enumerate(doms) if lo < mid < hi), None)

    while True:
        cuts = sorted(points)
        new = set()
        for u, v in zip(cuts, cuts[1:]):
            b = owner(u, v)
            if b is not None:
                br = pmap.branches[b]
                new |= {br.apply_raw(u), br.apply_raw(v)} - points
        if not new:
            break
        points |= new
        if len(points) > orbit_cap:
            raise NotFinitelyMarkovError("orbit cap")
    cuts = sorted(points)
    owned = [((u, v), owner(u, v)) for u, v in zip(cuts, cuts[1:])]
    owned = [(s, b) for s, b in owned if b is not None]
    return tuple(cuts), tuple(s for s, _ in owned), tuple(b for _, b in owned)


@st.composite
def exact_holes(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, 64))
        lo = draw(st.integers(0, q))
        hi = draw(st.integers(lo, q))
        pieces.append((F(lo, q), F(hi, q)))
    return H(*pieces)


CLOSURE_MAPS = {"doubling": build_d_adic(2), "triadic": build_d_adic(3),
                "farey-1": build_scaled_farey(ex(F(1)))}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLOSURE_MAPS)), hole=exact_holes(),
       cap=st.sampled_from([8, 20, 60, 10_000]))
def test_worklist_closure_matches_round_based_reference(name, hole, cap):
    pmap = CLOSURE_MAPS[name]
    try:
        want = reference_closure(pmap, hole, cap)
    except NotFinitelyMarkovError:
        with pytest.raises(NotFinitelyMarkovError):
            refine_markov(pmap, hole, cap)
        return
    ref = refine_markov(pmap, hole, cap)
    assert (ref.breakpoints, ref.states, ref.state_branch) == want


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CLOSURE_MAPS)), hole=exact_holes())
def test_transition_rows_match_dense_rule(name, hole):
    ref = refine_markov(CLOSURE_MAPS[name], hole)
    M = transition_matrix(ref)
    for row, (u, v), b in zip(M.entries, ref.states, ref.state_branch):
        br = ref.map.branches[b]
        w1, w2 = sorted((br.apply_raw(u), br.apply_raw(v)))
        assert row == tuple(1 if w1 <= s_lo and s_hi <= w2 else 0
                            for s_lo, s_hi in ref.states)


def test_refinement_closes_a_long_orbit():
    # 2 has order 1018 mod 1019: the closure has 1019 states; rescanning
    # every interval per round took seconds here
    hole = H((F(1, 1019), F(2, 1019)))
    ref = refine_markov(build_d_adic(2), hole)
    assert len(ref.states) == 1019
    assert len(ref.breakpoints) == 1021
    assert refine_markov(build_d_adic(2), hole, orbit_cap=1021) == ref
    with pytest.raises(NotFinitelyMarkovError):
        refine_markov(build_d_adic(2), hole, orbit_cap=1020)


def test_transition_matrix_checks_the_cap_before_building_rows(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("berkowitz_char_poly reached")

    monkeypatch.setattr(markov, "berkowitz_char_poly", unreachable)
    with pytest.raises(ResourceLimitError):
        entropy_markov(build_d_adic(2), H((F(1, 1019), F(2, 1019))))


# -- transition matrices ------------------------------------------------------------

def test_matrix_right_hole():
    ref = refine_markov(build_d_adic(2), H((F(3, 4), F(1))))
    M = transition_matrix(ref)
    assert M.entries == ((1, 1), (1, 0))
    assert M.char_poly == (-1, -1, 1)  # x^2 - x - 1


def test_matrix_interior_hole_char_poly():
    ref = refine_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    M = transition_matrix(ref)
    # x (x^2 - x - 1)^2 expanded, ascending
    assert M.char_poly == (0, 1, 2, -1, -2, 1)
    # independent cofactor oracle
    assert list(M.char_poly) == char_poly_cofactor([list(r) for r in M.entries])


def test_column_sums_bounded_by_branch_count():
    for hole in [H((F(3, 4), F(5, 6))), H((F(3, 4), F(1))), H((F(11, 20), F(1)))]:
        ref = refine_markov(build_d_adic(2), hole)
        M = transition_matrix(ref)
        assert all(c <= len(ref.map.branches) for c in M.column_sums())


def test_empty_refinement_total_escape():
    ref = refine_markov(build_d_adic(2), H((F(0), F(1))))
    M = transition_matrix(ref)
    assert M.size == 0
    assert M.char_poly == (1,)
    res = entropy_markov(build_d_adic(2), H((F(0), F(1))))
    assert res.entropy == 0.0


# -- spectral reports ----------------------------------------------------------------

def test_spectral_double_pole():
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    rep = res.report
    assert abs(rep.rho - GOLDEN) < 1e-12
    assert rep.algebraic_multiplicity == 2
    assert rep.geometric_multiplicity == 1
    assert rep.pole_order_p == 2
    assert rep.min_poly == (-1, -1, 1)
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    assert abs(rep.second_eigenvalue_modulus - (GOLDEN - 1)) < 1e-6
    assert abs(rep.second_eigenvalue_modulus - 1 / GOLDEN) < 1e-12


def _sympy_min_poly(factor, lo, hi):
    """Reference: the irreducible factor over the integers, by sympy, that
    changes sign on [lo, hi]."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    _, factors = sp.factor_list(sp.Poly(list(reversed(factor)), x))
    found = [tuple(int(c) for c in reversed(f.all_coeffs())) for f, _ in factors]
    found = [c for c in found if len(c) > 1
             and poly_eval(list(c), lo) * poly_eval(list(c), hi) <= 0]
    assert len(found) == 1, found
    return found[0]


def test_min_poly_read_on_demand_matches_direct_factoring():
    for s in (F(7, 10), F(71, 100), F(18, 25), F(29, 40), F(37, 50)):
        rep = entropy_markov(build_d_adic(2), H((s, s + F(1, 12)))).report
        assert rep.algebraic_multiplicity == 1
        assert "min_poly" not in vars(rep)  # nothing computed it yet
        expected = _sympy_min_poly(rep.rho_factor, *rep.rho_bracket)
        assert rep.min_poly == expected


@settings(max_examples=40, deadline=None)
@given(hole=exact_holes(), d=st.sampled_from([2, 3]))
@example(hole=H((F(3, 4), F(5, 6))), d=2)
@example(hole=H((F(1, 8), F(1, 3))), d=3)  # rho = 2 is an integer
def test_min_poly_matches_sympy(hole, d):
    pytest.importorskip("sympy")
    rep = entropy_markov(build_d_adic(d), hole).report
    if rep.rho_factor is not None:
        assert rep.min_poly == _sympy_min_poly(rep.rho_factor, *rep.rho_bracket)


@pytest.mark.parametrize("hole, want", [
    ((F(95, 128), F(95, 128) + F(1, 12)), (-1, 0, 0, -1, 1, 0, -1, 0, -1, -1, 1)),
    ((F(1, 6), F(5, 18)), (-1, -1, 1)),
])
def test_min_poly_fallback_rows(hole, want):
    # the rest after stripping keeps a non-cyclotomic extra factor, so the
    # degree-set certificate fails and sympy names the factor
    pytest.importorskip("sympy")
    rep = entropy_markov(build_d_adic(2), H(hole)).report
    assert rep.algebraic_multiplicity == 1
    assert not certify_irreducible(strip_cyclotomic(list(rep.rho_factor)))
    assert rep.min_poly == want == _sympy_min_poly(rep.rho_factor, *rep.rho_bracket)


def test_min_poly_integer_roots():
    # rho = 1, with a double pole and without
    for hole, alg in (((F(1, 39), F(20, 39)), 2), ((F(0), F(1, 2)), 1)):
        rep = entropy_markov(build_d_adic(2), H(hole)).report
        assert (rep.algebraic_multiplicity, rep.min_poly) == (alg, (-1, 1))
    # rho = 0: nilpotent
    M = TransitionMatrix(2, ((0, 1), (0, 0)), tuple(berkowitz_char_poly([[0, 1], [0, 0]])))
    assert spectral_report(M).min_poly == (0, 1)
    # rho = 2 on the triadic map, next to the golden ratio in x (x - 2)(x^2 - x - 1)
    rep = entropy_markov(build_d_adic(3), H((F(1, 8), F(1, 3)))).report
    assert rep.rho_factor == (0, 2, 1, -3, 1) and rep.min_poly == (-2, 1)


def test_spectral_simple_root():
    M = TransitionMatrix(2, ((1, 1), (1, 0)),
                         tuple(berkowitz_char_poly([[1, 1], [1, 0]])))
    rep = spectral_report(M)
    assert abs(rep.rho - GOLDEN) < 1e-12
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (1, 1, 1)


def test_spectral_identity():
    M = TransitionMatrix(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                         tuple(berkowitz_char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    rep = spectral_report(M)
    assert rep.rho == pytest.approx(1.0, abs=1e-12)
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (3, 3, 1)


def test_spectral_nilpotent():
    M = TransitionMatrix(2, ((0, 1), (0, 0)),
                         tuple(berkowitz_char_poly([[0, 1], [0, 0]])))
    rep = spectral_report(M)
    assert rep.rho == pytest.approx(0.0, abs=1e-12)
    assert rep.algebraic_multiplicity == 2
    assert rep.geometric_multiplicity == 1
    assert rep.pole_order_p == 2


@pytest.mark.parametrize("rows, rho, jordan", [
    ([[1, 1], [0, 1]], 1.0, (2, 1, 2)),
    ([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], GOLDEN, (2, 2, 1)),
    ([[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], GOLDEN, (2, 1, 2)),
    ([[1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0],
      [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 0]], GOLDEN, (3, 1, 3)),
    ([[2, 1, 0], [0, 2, 0], [0, 0, 2]], 2.0, (3, 2, 2)),
], ids=["jordan-2", "golden+golden", "coupled-golden", "golden-chain-3", "jordan-2+1"])
def test_spectral_jordan_table(rows, rho, jordan):
    M = TransitionMatrix(len(rows), tuple(map(tuple, rows)),
                         tuple(berkowitz_char_poly(rows)))
    rep = spectral_report(M)
    assert rep.rho == pytest.approx(rho, abs=1e-12)
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == jordan


def test_spectral_report_compares_exact_brackets():
    # the roots 1 - 2**-60 and the double root 1 have the same float; only
    # their exact brackets, halved until they part, tell which is larger
    char = poly_mul([-(2 ** 60 - 1), 2 ** 60], poly_mul([-1, 1], [-1, 1]))
    rep = spectral_report(TransitionMatrix(2, ((1, 0), (0, 1)), tuple(char)))
    assert rep.rho_factor == (-1, 1) and rep.rho == 1.0
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (2, 2, 1)


@pytest.mark.parametrize("tol", (0.0, -1e-12, math.inf, math.nan))
def test_spectral_report_rejects_bad_tol(tol):
    M = transition_matrix(refine_markov(build_d_adic(2), H((F(3, 4), F(5, 6)))))
    with pytest.raises(InvalidParameterError):
        spectral_report(M, tol=tol)


@settings(max_examples=40, deadline=None)
@given(hole=exact_holes(), d=st.sampled_from([2, 3]))
@example(hole=H((F(2, 3), F(1))), d=2)
@example(hole=H((F(3, 4), F(1))), d=2)
@example(hole=H((F(4, 5), F(1))), d=2)
@example(hole=H((F(7, 8), F(1))), d=2)
@example(hole=H((F(11, 20), F(1))), d=2)
@example(hole=H((F(7, 10), F(1))), d=2)
@example(hole=H((F(13, 16), F(1))), d=2)
def test_jordan_consistency_random_refinements(hole, d):
    # alg is the total size of the Jordan blocks of rho, geo their number
    # and p the largest
    rep = entropy_markov(build_d_adic(d), hole).report
    alg, geo, p = (rep.algebraic_multiplicity, rep.geometric_multiplicity,
                   rep.pole_order_p)
    assert (alg == 0) == (geo == 0) == (p == 0)
    if alg:
        assert geo <= alg
        assert -(-alg // geo) <= p <= alg - geo + 1


def test_perron_domination():
    for hole in [H((F(3, 4), F(5, 6))), H((F(4, 5), F(1))), H((F(11, 20), F(1)))]:
        res = entropy_markov(build_d_adic(2), hole)
        roots = np.roots(list(map(float, reversed(res.matrix.char_poly))))
        assert all(abs(z) <= res.report.rho + 1e-9 for z in roots)


# -- entropy -----------------------------------------------------------------------

def test_entropy_half_hole_single_state():
    res = entropy_markov(build_d_adic(2), H((F(1, 2), F(1))))
    assert res.matrix.entries == ((1,),)
    assert res.report.rho == pytest.approx(1.0, abs=1e-12)
    assert res.entropy == 0.0
    # cylinder counts stay at 1 forever
    tree = refine(build_d_adic(2), H((F(1, 2), F(1))), 10)
    assert all(c == 1 for c in tree.counts)


def test_entropy_agreement_with_kneading():
    for num, den in [(2, 3), (3, 4), (4, 5), (7, 8)]:
        a = F(num, den)
        mk = entropy_markov(build_d_adic(2), H((a, F(1)))).entropy
        kn = entropy_left_hole(ex(a)).entropy
        assert abs(mk - kn) < 1e-9


def test_entropy_agreement_dense_dyadic_grid():
    for k in range(33, 64, 3):
        a = F(k, 64)
        mk = entropy_markov(build_d_adic(2), H((a, F(1)))).entropy
        kn = entropy_left_hole(ex(a)).entropy
        assert abs(mk - kn) < 1e-9


def test_kneading_and_markov_agree_on_every_small_left_hole():
    # every a = p/q in (1/2, 1) with q < 40, on the tower and Markov engines
    cases = sorted({F(p, q) for q in range(3, 40) for p in range(q // 2 + 1, q)})
    assert len(cases) == 236
    for a in cases:
        mk = entropy_markov(build_d_adic(2), H((a, F(1))))
        kn = entropy_left_hole(ex(a))
        assert abs(mk.entropy - kn.entropy) < 1e-12, a
        assert mk.report.pole_order_p == kn.p, a


def test_entropy_right_hole_pole_order_one():
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(1))))
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    assert res.report.pole_order_p == 1


def test_farey_exact_markov():
    # exact rational Farey parameters close: a = 4/5 has a finite refinement
    res = entropy_markov(build_scaled_farey(ex(F(4, 5))), Hole.empty())
    assert abs(res.entropy - math.log(2)) < 1e-12


# -- exports -----------------------------------------------------------------------

def test_json_report_fields():
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    out = res.to_json()
    assert out["char_poly_coeffs"] == [0, 1, 2, -1, -2, 1]
    assert out["alg_mult"] == 2 and out["geo_mult"] == 1 and out["p"] == 2
    assert out["states"][0] == ["0", "1/3"]
    assert abs(out["entropy"] - LOG_GOLDEN) < 1e-12


def test_dot_export():
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(1))))
    dot = to_dot(res)
    assert dot.startswith("digraph")
    assert "s0 -> s1;" in dot
    assert "s1 -> s0;" in dot
    assert "s1 -> s1;" not in dot
