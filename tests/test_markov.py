import math
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holed_entropy import (Hole, InvalidParameterError, NotFinitelyMarkovError,
                           ResourceLimitError, build_d_adic,
                           build_scaled_farey, entropy_left_hole, entropy_markov,
                           refine, refine_markov, spectral_report, to_dot,
                           transition_matrix)
from holed_entropy import markov, minpoly, perron, polyexact
from holed_entropy.mapmodel import (Affine, Branch, IntervalOpen, Moebius,
                                    PiecewiseMap, map_from_config)
from holed_entropy.markov import MarkovRefinement, TransitionMatrix
from holed_entropy.minpoly import certify_irreducible, strip_cyclotomic
from holed_entropy.perron import perron_bracket
from holed_entropy.polyexact import (CHAR_POLY_SIZE_CAP, berkowitz_char_poly,
                                     int_matmul, poly_eval, poly_mul,
                                     square_free_decomposition)
from test_polyexact import (_cauchy_bound, _int_sturm_chain, _sturm_count,
                            char_poly_cofactor)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
GOLDEN = (1 + math.sqrt(5)) / 2


def ex(x):
    return Fraction(x)


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


def test_refinement_state_cap():
    # 2 has order 10036 mod 10037: the closure would have 10037 states, and
    # is refused at the 401st, after 403 points
    with pytest.raises(ResourceLimitError,
                       match="passed 400 states .* after 403 points"):
        refine_markov(build_d_adic(2), H((F(1, 10037), F(2, 10037))))


@pytest.mark.parametrize("pmap, hole, points", [
    (build_d_adic(2), H((F(1, 1019), F(2, 1019))), 403),
    (build_scaled_farey(F(2, 5)), Hole.empty(), 402),
    # a first-in-first-out worklist reaches the cap after 404 points here
    (build_d_adic(2), H((F(1, 10037), F(3, 10037))), 403),
], ids=["doubling-1/1019", "farey-2/5", "doubling-1/10037-3/10037"])
def test_state_cap_refusal_text(pmap, hole, points):
    # the point count depends on the order the worklist adds points in
    with pytest.raises(ResourceLimitError) as err:
        refine_markov(pmap, hole)
    assert str(err.value) == (
        "the closure passed 400 states (the characteristic-polynomial cap) "
        f"after {points} points; use the cylinder or tower engines")


def test_refinement_refuses_more_initial_states_than_the_cap():
    # the 401 branch domains are states before any orbit point is added
    with pytest.raises(ResourceLimitError, match="after 402 points"):
        refine_markov(build_d_adic(401), Hole.empty())


def test_refinement_stops_owning_initial_intervals_past_the_cap(monkeypatch):
    # states are counted while the owners are found, so the refusal comes at
    # the 401st owned interval, not after all 1000
    calls = []
    owner = markov._owner
    monkeypatch.setattr(markov, "_owner",
                        lambda *args: calls.append(args) or owner(*args))
    with pytest.raises(ResourceLimitError, match="after 1001 points"):
        refine_markov(build_d_adic(1000), Hole.empty())
    assert len(calls) <= CHAR_POLY_SIZE_CAP + 1


def _slope_config_map(e):
    # two affine branches of slope (2^e + 1)/2^(e - 1), a gap between them
    s = F(2 ** e + 1, 2 ** (e - 1))
    return map_from_config({"codomain": ["0", "1"], "branches": [
        {"domain": ["0", str(1 / s)], "kind": "affine", "coeffs": [str(s), "0"]},
        {"domain": [str(1 - 1 / s), "1"], "kind": "affine",
         "coeffs": [str(s), str(1 - s)]}]})[0]


def test_bit_budget_refuses_an_orbit_of_growing_heights():
    # an image can multiply a denominator by 2^299: the points pass the bit
    # budget at 52 points, where the state cap would refuse at 405
    with pytest.raises(NotFinitelyMarkovError, match="640000 bits after 52 points"):
        refine_markov(_slope_config_map(300), H((F(3, 4), F(7, 8))))


def test_bit_budget_refuses_a_closure_within_the_state_cap(monkeypatch):
    # this closure has 192 states, within the cap, but 1.29 M bits
    pmap, hole = _slope_config_map(64), H((F(3, 4), F(7, 8)))
    with pytest.raises(NotFinitelyMarkovError, match="bits after 147 points"):
        refine_markov(pmap, hole)
    monkeypatch.setattr(markov, "_CLOSURE_BITS", 2_000_000)
    assert len(refine_markov(pmap, hole).states) == 192


def test_markov_property_holds():
    for hole in [H((F(3, 4), F(5, 6))), H((F(3, 4), F(1))), H((F(2, 3), F(1)))]:
        ref = refine_markov(build_d_adic(2), hole)
        cutset = set(ref.breakpoints)
        for (u, v), b in zip(ref.states, ref.state_branch):
            br = ref.map.branches[b]
            w1, w2 = sorted((br.apply_raw(u), br.apply_raw(v)))
            assert w1 in cutset and w2 in cutset


def _initial_cuts(pmap, hole):
    """Sorted codomain, branch-domain and hole endpoints, and the owner of
    an elementary interval (a branch by linear scan, None in the hole or
    outside every domain)."""
    ilo, ihi = pmap.codomain.as_raw()
    doms = pmap.branch_domains_raw()
    points = {ilo, ihi, *(x for piece in doms + list(hole.pieces) for x in piece)}

    def owner(u, v):
        mid = (u + v) / 2
        if any(lo <= mid <= hi for lo, hi in hole.pieces):
            return None
        return next((k for k, (lo, hi) in enumerate(doms) if lo < mid < hi), None)

    return sorted(points), owner


def reference_closure(pmap, hole, state_cap=CHAR_POLY_SIZE_CAP):
    """Round-based closure: rescan every elementary interval until a round
    adds no point, refusing once a round ends with more than ``state_cap``
    states.  Returns (breakpoints, states, state_branch)."""
    cuts, owner = _initial_cuts(pmap, hole)
    points = set(cuts)
    while True:
        cuts = sorted(points)
        owned = [((u, v), owner(u, v)) for u, v in zip(cuts, cuts[1:])]
        owned = [(s, b) for s, b in owned if b is not None]
        if len(owned) > state_cap:
            raise ResourceLimitError("state cap")
        new = set()
        for (u, v), b in owned:
            br = pmap.branches[b]
            new |= {br.apply_raw(u), br.apply_raw(v)} - points
        if not new:
            break
        points |= new
    return tuple(cuts), tuple(s for s, _ in owned), tuple(b for _, b in owned)


@st.composite
def exact_holes(draw, max_pieces=3, max_q=64):
    pieces = []
    for _ in range(draw(st.integers(1, max_pieces))):
        q = draw(st.integers(1, max_q))
        lo = draw(st.integers(0, q))
        hi = draw(st.integers(lo, q))
        pieces.append((F(lo, q), F(hi, q)))
    return H(*pieces)


def _two_branch_map(left, right, cut=F(1, 2)):
    return PiecewiseMap(IntervalOpen(0, 1), (Branch(IntervalOpen(0, cut), left),
                                             Branch(IntervalOpen(cut, 1), right)))


CLOSURE_MAPS = {
    "doubling": build_d_adic(2), "triadic": build_d_adic(3),
    "farey-1": build_scaled_farey(ex(F(1))),
    # a decreasing affine branch
    "tent": _two_branch_map(Affine(2, 0), Affine(-2, 2)),
    "slopes-3-3/2": _two_branch_map(Affine(3, 0), Affine(F(3, 2), F(-1, 2)), F(1, 3)),
    "farey-3/4": build_scaled_farey(F(3, 4)),
    # farey-1 with every coefficient negated: C x + D < 0 on both domains
    "farey-1-negated": _two_branch_map(Moebius(-1, 0, 1, -1), Moebius(1, -1, -1, 0)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLOSURE_MAPS)), hole=exact_holes(),
       cap=st.sampled_from([8, 20, 60, CHAR_POLY_SIZE_CAP]))
def test_worklist_closure_matches_round_based_reference(name, hole, cap):
    # states only grow and the closed set is unique, so both refuse the
    # same holes whatever order they add points in
    pmap = CLOSURE_MAPS[name]
    if name == "farey-3/4":
        # most of its orbits do not close, and the reference rescans and
        # re-sorts every point in every round: it took up to 8 s to refuse
        # at 400 states, where 60 take 0.1 s
        cap = min(cap, 60)
    with patch.object(markov, "CHAR_POLY_SIZE_CAP", cap):
        try:
            want = reference_closure(pmap, hole, cap)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                refine_markov(pmap, hole)
            return
        ref = refine_markov(pmap, hole)
    assert (ref.breakpoints, ref.states, ref.state_branch) == want


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3]), hole=exact_holes(max_pieces=2))
def test_closure_keeps_the_state_cap_and_the_point_bound(d, hole):
    # a new point splits one interval and queues at most one image, so the
    # closure has at most initial cuts + initial states + final states points
    pmap = build_d_adic(d)
    try:
        ref = refine_markov(pmap, hole)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError):
            reference_closure(pmap, hole)
        return
    assert len(ref.states) <= CHAR_POLY_SIZE_CAP
    cuts, owner = _initial_cuts(pmap, hole)
    initial_states = sum(owner(u, v) is not None for u, v in zip(cuts, cuts[1:]))
    assert len(ref.breakpoints) <= len(cuts) + initial_states + len(ref.states)
    assert (ref.breakpoints, ref.states, ref.state_branch) == reference_closure(pmap, hole)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CLOSURE_MAPS)), hole=exact_holes())
def test_transition_rows_match_dense_rule(name, hole):
    try:
        ref = refine_markov(CLOSURE_MAPS[name], hole)
    except (ResourceLimitError, NotFinitelyMarkovError):
        return  # orbits that do not close (farey-3/4, slopes-3-3/2)
    M = transition_matrix(ref)
    for row, (u, v), b in zip(M.entries, ref.states, ref.state_branch):
        br = ref.map.branches[b]
        w1, w2 = sorted((br.apply_raw(u), br.apply_raw(v)))
        assert row == tuple(1 if w1 <= s_lo and s_hi <= w2 else 0
                            for s_lo, s_hi in ref.states)


def test_refinement_closes_a_long_orbit(monkeypatch):
    # 2 has order 1018 mod 1019: the closure has 1019 states, past the cap
    # unless it is raised; rescanning every interval per round took seconds
    hole = H((F(1, 1019), F(2, 1019)))
    monkeypatch.setattr(markov, "CHAR_POLY_SIZE_CAP", 1019)
    ref = refine_markov(build_d_adic(2), hole)
    assert len(ref.states) == 1019
    assert len(ref.breakpoints) == 1021
    monkeypatch.setattr(markov, "CHAR_POLY_SIZE_CAP", 1018)
    with pytest.raises(ResourceLimitError, match="passed 1018 states"):
        refine_markov(build_d_adic(2), hole)


def test_transition_matrix_refuses_an_image_off_the_breakpoints():
    # drop the point 1/3, so that (0, 1/2) is one state: the state (1/2, 2/3)
    # still maps onto (0, 1/3)
    ref = refine_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    assert ref.pairs[1] == (1, 3) and ref.state_start == (0, 1, 2, 3, 5)
    pairs = ref.pairs[:1] + ref.pairs[2:]  # 0, 1/2, 2/3, 3/4, 5/6, 1
    broken = MarkovRefinement(ref.map, ref.hole, pairs, (0, 1, 2, 4), (0, 1, 1, 1))
    assert broken.states == ((F(0), F(1, 2)), (F(1, 2), F(2, 3)),
                             (F(2, 3), F(3, 4)), (F(5, 6), F(1)))
    with pytest.raises(NotFinitelyMarkovError) as err:
        transition_matrix(broken)
    assert str(err.value) == ("state (1/2, 2/3) maps onto (0, 1/3) which is not "
                              "breakpoint-aligned; refinement is not Markov")


@pytest.mark.parametrize("name, hole", [
    ("doubling", H((F(3, 4), F(5, 6)))), ("triadic", H((F(12, 37), F(13, 37)))),
    ("farey-1", H((F(1, 3), F(2, 5)))), ("tent", H((F(1, 5), F(1, 4)), (F(7, 9), F(1))))])
def test_closure_and_rows_build_no_fraction(monkeypatch, name, hole):
    # the closure and the rows run on integer pairs; the Fraction views of
    # the refinement are built on first read, after the rows
    want = transition_matrix(refine_markov(CLOSURE_MAPS[name], hole))

    def refused(*args):
        raise AssertionError("a Fraction was built")
    with monkeypatch.context() as patched:
        patched.setattr(markov, "Fraction", refused)
        ref = refine_markov(CLOSURE_MAPS[name], hole)
        M = transition_matrix(ref)
    assert M == want
    assert not {"breakpoints", "states"} & set(vars(ref))
    assert ref.breakpoints == tuple(F(n, d) for n, d in ref.pairs)
    assert ref.states == tuple((ref.breakpoints[i], ref.breakpoints[i + 1])
                               for i in ref.state_start)


def test_transition_matrix_checks_the_cap_before_building_rows(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a characteristic-polynomial path reached")

    monkeypatch.setattr(markov, "berkowitz_char_poly", unreachable)
    hole = H((F(1, 1019), F(2, 1019)))
    with pytest.raises(ResourceLimitError, match="passed 400 states"):
        entropy_markov(build_d_adic(2), hole)
    # a refinement past the cap that the closure did not refuse
    with monkeypatch.context() as patched:
        patched.setattr(markov, "CHAR_POLY_SIZE_CAP", 1019)
        ref = refine_markov(build_d_adic(2), hole)
    with pytest.raises(ResourceLimitError, match="1019 states exceed"):
        transition_matrix(ref)


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


def _exact_traces(rows):
    """tr(M^k), k = 1..n, over Python ints."""
    P, traces = rows, []
    for _ in rows:
        traces.append(sum(P[i][i] for i in range(len(rows))))
        P = int_matmul(P, rows)
    return traces


def test_char_poly_of_a_matrix_whose_trace_passes_2_53():
    # every entry of M^37 lies below 2**53, but its trace is 1.6e17
    M = transition_matrix(refine_markov(build_d_adic(3), H((F(12, 37), F(13, 37)))))
    traces = _exact_traces([list(r) for r in M.entries])
    assert len(traces) == 37 and traces[-1] == 157761515382330707
    assert M.char_poly == (0, 1, 0, -1, 2, 0, 2, 0, 0, 0, -1, 3, -3, 2, 2, 0, -1, 0,
                           3, -2, 0, 1, -2, 0, -2, 0, 0, 0, 1, -3, 3, -2, -2, 0, 1,
                           0, -3, 1)
    # Newton's identities on the exact traces: k c_k = -(t_k + c_1 t_(k-1)
    # + ... + c_(k-1) t_1) for the coefficient c_k of x^(n-k)
    c = [1]
    for k in range(1, 38):
        q, r = divmod(sum(a * t for a, t in zip(c, reversed(traces[:k]))), k)
        assert r == 0
        c.append(-q)
    assert M.char_poly == tuple(reversed(c))


def test_column_sums_bounded_by_branch_count():
    for hole in [H((F(3, 4), F(5, 6))), H((F(3, 4), F(1))), H((F(11, 20), F(1)))]:
        ref = refine_markov(build_d_adic(2), hole)
        M = transition_matrix(ref)
        assert all(sum(col) <= len(ref.map.branches) for col in zip(*M.entries))


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


def test_a_seed_on_a_triple_rho_takes_the_full_path(monkeypatch):
    # a seed right on a root of odd multiplicity sees a sign change across
    # its bracket; the root search runs on the square-free part x - 2, and
    # the power 3 of that factor makes rho triple
    monkeypatch.setattr(polyexact, "_newton_seed", lambda p: 2.0)
    rows = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]
    rep = spectral_report(TransitionMatrix(3, tuple(map(tuple, rows)),
                                           tuple(berkowitz_char_poly(rows))))
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (3, 1, 3)
    assert rep.rho == 2.0 and "_decomposition" in vars(rep)


@pytest.mark.parametrize("hole", [H((F(3, 4), F(1))), H((F(7, 10), F(7, 10) + F(1, 12))),
                                  H((F(3, 4), F(5, 6)))], ids=str)
def test_a_wrong_seed_cell_gives_the_same_report(monkeypatch, hole):
    # a seed moved by 1e-9 passes the Descartes certificate with another
    # bracket, and the one exact bisection ends in the same grid cell; the
    # double pole at [3/4, 5/6] gets there through the square-free part
    M = transition_matrix(refine_markov(build_d_adic(2), hole))
    want = spectral_report(M)
    seed_of = polyexact._newton_seed

    def moved(p):
        seed = seed_of(p)
        return seed and seed * (1 + 1e-9)

    monkeypatch.setattr(polyexact, "_newton_seed", moved)
    with patch.object(polyexact, "_bisect", wraps=polyexact._bisect) as spy:
        got = spectral_report(M)
    assert spy.call_count == 1
    assert (got.rho, got.rho_bracket, got.algebraic_multiplicity,
            got.geometric_multiplicity, got.pole_order_p) == \
        (want.rho, want.rho_bracket, want.algebraic_multiplicity,
         want.geometric_multiplicity, want.pole_order_p)


def _reference_error_bound(lo, hi):
    """max(log x, 0) over the rho bracket, each end rounded outward by one
    ulp, written out end by end."""
    h_lo = math.nextafter(math.log(lo), -math.inf) if lo > 1 else 0.0
    h_hi = math.nextafter(math.log(hi), math.inf) if hi > 1 else 0.0
    return math.nextafter(h_hi - max(h_lo, 0.0), math.inf)


# dyadic rho brackets below, across and above 1, as the grid gives them
_dyadic_brackets = st.integers(0, 70).flatmap(lambda k: st.tuples(
    st.integers(0, 4 << k), st.integers(0, 4 << k)).map(
        lambda ab: tuple(F(x, 1 << k) for x in sorted(ab))))


@settings(max_examples=200, deadline=None)
@given(bracket=_dyadic_brackets)
@example(bracket=(F(0), F(0)))  # no survivors of rho 0
@example(bracket=(F(0), F(1)))
@example(bracket=(F(1), F(1)))  # the exact root 1
@example(bracket=(F(1), F(2)))
@example(bracket=(F(2), F(2)))
def test_error_bound_matches_the_end_by_end_rounding(bracket):
    report = SimpleNamespace(rho_bracket=bracket)
    got = markov.MarkovEntropy(None, None, report, 0.0).error_bound
    assert got == _reference_error_bound(*bracket)


def test_spectral_report_compares_exact_brackets():
    # the roots 1 - 2**-60 and the double root 1 have the same float; only
    # the exact bracket of the square-free part, which holds one root, tells
    # which factor holds the larger
    char = poly_mul([-(2 ** 60 - 1), 2 ** 60], poly_mul([-1, 1], [-1, 1]))
    rep = spectral_report(TransitionMatrix(2, ((1, 0), (0, 1)), tuple(char)))
    assert rep.rho_factor == (-1, 1) and rep.rho == 1.0
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (2, 2, 1)
    # the simple root 1 + 2**-60 lies above the double root 1
    char = poly_mul([-(2 ** 60 + 1), 2 ** 60], poly_mul([-1, 1], [-1, 1]))
    rep = spectral_report(TransitionMatrix(2, ((1, 0), (0, 1)), tuple(char)))
    assert rep.rho_factor == (-(2 ** 60 + 1), 2 ** 60) and rep.rho == 1.0
    assert rep.algebraic_multiplicity == 1
    assert rep.rho_bracket[0] > 1


def test_spectral_report_refuses_a_polynomial_without_a_perron_root():
    # x + 1 is no characteristic polynomial of a nonnegative matrix
    with pytest.raises(AssertionError, match="Perron-Frobenius"):
        spectral_report(TransitionMatrix(1, ((0,),), (1, 1)))


@settings(max_examples=40, deadline=None)
@given(hole=exact_holes(), d=st.sampled_from([2, 3]))
@example(hole=H((F(3, 4), F(5, 6))), d=2)
@example(hole=H((F(1, 8), F(1, 3))), d=3)  # rho = 2: a zero-width bracket
@example(hole=H((F(0), F(1))), d=2)  # total escape: no bracket
def test_rho_factor_holds_the_largest_root_of_the_square_free_part(hole, d):
    M = transition_matrix(refine_markov(build_d_adic(d), hole))
    rep = spectral_report(M)
    if rep.rho_factor is None:
        assert M.size == 0
        return
    decomp = square_free_decomposition(list(M.char_poly))
    assert rep.algebraic_multiplicity == dict(
        (tuple(f), mult) for f, mult in decomp)[rep.rho_factor]
    square_free = [1]
    for factor, _mult in decomp:
        square_free = poly_mul(square_free, factor)
    lo, hi = rep.rho_bracket
    if lo == hi:
        assert poly_eval(list(rep.rho_factor), lo) == 0
    else:
        assert _sturm_count(_int_sturm_chain(list(rep.rho_factor)), lo, hi) == 1
    assert _sturm_count(_int_sturm_chain(square_free), hi,
                        _cauchy_bound(square_free)) == 0


def _counting_decomposition(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return square_free_decomposition(p)
    monkeypatch.setattr(markov, "square_free_decomposition", counted)
    return calls


def test_simple_rho_computes_min_poly_only_on_read(monkeypatch):
    # the entropy command without --json reads no min_poly, so a simple rho
    # must not compute one before it is read
    calls = []
    real = minpoly.min_poly_of_root
    monkeypatch.setattr(minpoly, "min_poly_of_root",
                        lambda *args: calls.append(args) or real(*args))
    M = transition_matrix(refine_markov(build_d_adic(2), H((F(7, 10), F(7, 10) + F(1, 12)))))
    rep = spectral_report(M)
    assert (rep.algebraic_multiplicity, rep.pole_order_p) == (1, 1)
    rep.rho_factor, rep.second_eigenvalue_modulus
    assert calls == [] and "min_poly" not in vars(rep)
    assert rep.min_poly == rep.min_poly == tuple(real(rep.rho_factor, *rep.rho_bracket))
    assert len(calls) == 1


def test_double_pole_takes_the_full_path(monkeypatch):
    calls = _counting_decomposition(monkeypatch)
    rep = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6)))).report
    assert len(calls) == 1
    assert {"_decomposition", "rho_factor", "min_poly"} <= set(vars(rep))
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity,
            rep.pole_order_p) == (2, 1, 2)
    assert rep.rho_factor == rep.min_poly == (-1, -1, 1)
    assert abs(rep.second_eigenvalue_modulus - 1 / GOLDEN) < 1e-12
    assert len(calls) == 1


def test_sliding_sweep_decomposes_only_at_the_double_pole(monkeypatch):
    # over the 129 holes [s, s + 1/12], s in [7/10, 4/5], the Newton seed
    # certifies every simple rho; only the double rho at s = 3/4 is decomposed
    calls = _counting_decomposition(monkeypatch)
    decomposed = []
    for k in range(129):
        s = F(7, 10) + k * F(1, 1280)
        before = len(calls)
        rep = entropy_markov(build_d_adic(2), H((s, s + F(1, 12)))).report
        if len(calls) > before:
            decomposed.append((s, rep.pole_order_p))
    assert decomposed == [(F(3, 4), 2)]


@pytest.mark.parametrize("char, want, decomposed", [
    ((-1, -1, 1), [([-1, -1, 1], 1)], False),  # k = 0
    ((0, -1, -1, 1), [([0, -1, -1, 1], 1)], False),  # k = 1: x q is square-free
    ((0, 0, 0, -1, -1, 1), [([-1, -1, 1], 1), ([0, 1], 3)], False),  # k >= 2
    ((0, 0, 1), [([0, 1], 2)], True),  # q = 1: nothing to certify
    ((1, 2, -1, -2, 1), [([-1, -1, 1], 2)], True),  # a repeated q
    ((1,), [], True),  # the empty matrix
])
def test_square_free_certificate_reads_the_decomposition(monkeypatch, char, want, decomposed):
    calls = _counting_decomposition(monkeypatch)
    assert markov.SpectralReport(1.0, 1, 1, 1, None, char)._decomposition == want
    assert calls == ([list(char)] if decomposed else [])


def test_square_free_certificate_matches_the_decomposition_on_the_sweep(monkeypatch):
    # the 129 sliding holes [s, s + 1/12] of the Markov sweep, s = 7/10 .. 4/5
    calls = _counting_decomposition(monkeypatch)
    for k in range(129):
        s = F(7, 10) + F(k, 1280)
        char = transition_matrix(refine_markov(build_d_adic(2), H((s, s + F(1, 12))))).char_poly
        got = markov.SpectralReport(1.0, 1, 1, 1, None, char)._decomposition
        assert got == square_free_decomposition(list(char))
    # both ran: 109 of the 129 are certified square-free modulo 2^31 - 1
    assert 0 < len(calls) < 129


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


# -- the class-structure Perron path ---------------------------------------------

PERRON_MAPS = {
    "doubling": build_d_adic(2), "tripling": build_d_adic(3),
    "tent": CLOSURE_MAPS["tent"], "farey-1": CLOSURE_MAPS["farey-1"],
    "farey-9/10": build_scaled_farey(F(9, 10)), "farey-4/5": build_scaled_farey(F(4, 5)),
}


def _overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PERRON_MAPS)), hole=exact_holes())
@example(name="doubling", hole=H((F(7, 10), F(7, 10) + F(1, 12))))
@example(name="farey-9/10", hole=H((F(19, 31), F(51, 62))))  # the old bracket was wide
@example(name="doubling", hole=H((F(1, 2), F(1))))  # one state with a loop: rho = 1
def test_class_bracket_agrees_with_the_characteristic_polynomial(name, hole):
    try:
        M = transition_matrix(refine_markov(PERRON_MAPS[name], hole))
    except (NotFinitelyMarkovError, ResourceLimitError):
        return
    perron = perron_bracket(M.runs, markov.DEFAULT_TOL)
    res = entropy_markov(PERRON_MAPS[name], hole)
    assert isinstance(res.report, markov._ClassReport) == (perron is not None)
    if perron is None:
        return
    rho, lo, hi = perron
    assert (res.report.rho, res.report.rho_bracket) == (rho, (Fraction(lo), Fraction(hi)))
    assert 0 <= lo <= rho <= hi and hi - lo <= markov.DEFAULT_TOL
    exact = spectral_report(M)
    assert (exact.algebraic_multiplicity, exact.geometric_multiplicity,
            exact.pole_order_p) == (1, 1, 1)
    assert _overlap((Fraction(lo), Fraction(hi)), exact.rho_bracket)


def test_the_double_pole_falls_back_to_the_characteristic_polynomial():
    M = transition_matrix(refine_markov(build_d_adic(2), H((F(3, 4), F(5, 6)))))
    assert perron_bracket(M.runs, markov.DEFAULT_TOL) is None  # two golden classes
    rep = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6)))).report
    assert type(rep) is markov.SpectralReport
    assert (rep.algebraic_multiplicity, rep.pole_order_p) == (2, 2)


def test_a_tol_below_the_class_bracket_falls_back():
    hole = H((F(7, 10), F(7, 10) + F(1, 12)))
    M = transition_matrix(refine_markov(build_d_adic(2), hole))
    _, lo, hi = perron_bracket(M.runs, markov.DEFAULT_TOL)
    assert 0 < hi - lo and perron_bracket(M.runs, 1e-16) is None
    rep = entropy_markov(build_d_adic(2), hole, tol=1e-16).report
    assert type(rep) is markov.SpectralReport
    lo, hi = rep.rho_bracket
    assert hi - lo <= 1e-16


def test_the_top_class_need_not_be_found_first():
    # {0, 1, 2} reaches the golden class {3, 4}, which Tarjan closes first
    runs = ((0, 4), (0, 3), (0, 2), (3, 5), (3, 4))
    assert perron.classes(runs) == [[3, 4], [0, 1, 2]]
    rho, lo, hi = perron_bracket(runs, markov.DEFAULT_TOL)
    exact = spectral_report(TransitionMatrix(5, runs=runs))
    assert abs(rho - exact.rho) < 1e-15
    assert _overlap((Fraction(lo), Fraction(hi)), exact.rho_bracket)
    assert lo > (1 + 5 ** 0.5) / 2 and exact.algebraic_multiplicity == 1


@pytest.mark.parametrize("runs, want", [
    (((0, 1), (0, 1)), (1.0, 1, 1)),  # a loop above a loopless state
    (((0, 0),), (0.0, 0, 0)),  # one loopless state
])
def test_single_states_have_exact_radii(runs, want):
    assert perron_bracket(runs, 1e-13) == want


@pytest.mark.parametrize("runs", [
    ((0, 1), (1, 2)),  # two loops: rho = 1 twice
    ((1, 2), (2, 2), (0, 0)),  # loopless states only: rho = 0 three times
    ((0, 3), (0, 1), (2, 4), (2, 3)),  # golden classes in a chain
], ids=["two-loops", "loopless", "golden-chain"])
def test_tied_classes_fall_back(runs):
    assert perron_bracket(runs, 1e-13) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=8))
def test_classes_match_mutual_reachability(ends):
    n = len(ends)
    runs = tuple((min(a, n), min(max(a, b), n)) for a, b in ends)
    reach = [{i} for i in range(n)]
    for _ in range(n):
        for i, (first, end) in enumerate(runs):
            for j in range(first, end):
                reach[i] |= reach[j]
    want = sorted({tuple(j for j in range(n) if j in reach[i] and i in reach[j])
                   for i in range(n)})
    assert sorted(map(tuple, perron.classes(runs))) == want


def test_the_sweep_builds_no_characteristic_polynomial_off_the_double_pole(monkeypatch):
    built, char_poly = [], markov.berkowitz_char_poly
    monkeypatch.setattr(markov, "berkowitz_char_poly",
                        lambda rows: built.append(len(rows)) or char_poly(rows))
    for s in (F(7, 10), F(29, 40), F(3, 4), F(4, 5) - F(1, 1280)):
        entropy_markov(build_d_adic(2), H((s, s + F(1, 12))))
    assert len(built) == 1  # the [3/4, 5/6] fallback


def test_class_report_reads_the_characteristic_polynomial_on_demand():
    hole = H((F(7, 10), F(7, 10) + F(1, 12)))
    res = entropy_markov(build_d_adic(2), hole)
    rep = res.report
    assert isinstance(rep, markov._ClassReport)
    assert "char_poly" not in vars(res.matrix) and "_exact" not in vars(rep)
    exact = spectral_report(transition_matrix(refine_markov(build_d_adic(2), hole)))
    assert rep.char_poly == exact.char_poly
    assert (rep.rho_factor, rep.min_poly) == (exact.rho_factor, exact.min_poly)
    assert rep.second_eigenvalue_modulus == exact.second_eigenvalue_modulus


def test_cap_hole_takes_the_class_path():
    res = entropy_markov(build_d_adic(2), H((F(30001, 100003), F(30201, 100003))))
    assert res.matrix.size == 395 and isinstance(res.report, markov._ClassReport)
    assert f"{res.report.rho:.15g}" == "1.99601365069933" and res.report.pole_order_p == 1
    assert res.error_bound < 1e-14
    assert "char_poly" not in vars(res.matrix)


def test_spectrum_markov_keeps_the_characteristic_polynomial_path():
    hole = H((F(7, 10), F(7, 10) + F(1, 12)))
    res = markov.spectrum_markov(build_d_adic(2), hole)
    assert type(res.report) is markov.SpectralReport
    assert res.report == spectral_report(res.matrix)


@pytest.mark.parametrize("pmap, hole", [
    (build_d_adic(2), H((F(3, 4), F(5, 6)))),
    (build_scaled_farey(F(4, 5)), H((F(1, 4), F(3, 8)))),
], ids=["doubling", "farey-4/5"])
def test_spectrum_rounds_the_golden_ratio_correctly(pmap, hole):
    # rho is the golden ratio on both holes; the Farey hole's characteristic
    # polynomial has a repeated factor besides rho's, and the float polish
    # runs on the square-free part, as for the double pole
    res = markov.spectrum_markov(pmap, hole)
    assert res.report.min_poly == (-1, -1, 1)
    assert res.report.rho == 1.618033988749895 == (1 + math.sqrt(5)) / 2
    assert res.entropy == math.log(1.618033988749895)


def test_entropy_markov_looks_up_spectral_report_at_call_time(monkeypatch):
    # the benchmark wraps markov.spectral_report by name and counts the rows
    # whose report has alg > 1: the double pole reaches it exactly once
    reports, real = [], markov.spectral_report

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(markov, "spectral_report", spy)
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    assert len(reports) == 1 and res.report is reports[0]
    assert (res.report.algebraic_multiplicity, res.report.pole_order_p) == (2, 2)


@pytest.mark.parametrize("tol", (0.0, -1e-12, math.inf, math.nan))
def test_entropy_markov_checks_tol_before_the_closure(monkeypatch, tol):
    monkeypatch.setattr(markov, "refine_markov", None)
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6))), tol=tol)


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


@pytest.mark.parametrize("a", (F(2, 5), F(1, 3)))
def test_farey_below_half_is_refused_by_the_state_cap(a):
    # the boundary orbit tends to the fixed point 0 with heights growing at
    # every step; a 10,000-point cap alone let 2/5 run for 16 s before refusing
    with pytest.raises(ResourceLimitError, match="passed 400 states"):
        entropy_markov(build_scaled_farey(a), Hole.empty())


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
