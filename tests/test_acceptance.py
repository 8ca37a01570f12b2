"""Acceptance suite: end-to-end checks with pinned tolerances and budgets.

Each test prints one PASS line (visible under ``pytest -s``) with its
runtime; a failed assertion marks the criterion failed.
"""

import json
import math
import random
import time
from fractions import Fraction

from holed_entropy import (Hole, LeftHoleFamily, SlidingHoleFamily,
                           SweepSpec, build_d_adic, build_scaled_farey,
                           determinant, build_orbit, emit_csv, entropy_estimate,
                           entropy_left_hole, entropy_markov,
                           expansion_diagnostics, hole_dist, map_from_config,
                           map_to_config, refine, run_sweep,
                           verify_holder_bound)

LOG2 = math.log(2)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
GOLDEN = (1 + math.sqrt(5)) / 2


def F(n, d=1):
    return Fraction(n, d)


def ex(x):
    return Fraction(x)


def H(*pieces):
    return Hole([(ex(lo), ex(hi)) for lo, hi in pieces])


def _report(num: int, desc: str, t0: float, limit: float):
    elapsed = time.time() - t0
    print(f"\n[criterion {num}] PASS in {elapsed:.2f}s (limit {limit:g}s) - {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


FIB = [1, 1]
while len(FIB) < 30:
    FIB.append(FIB[-1] + FIB[-2])  # FIB[n] = F_{n+1}


def test_criterion_1_golden_ratio_left_hole():
    t0 = time.time()
    kn = entropy_left_hole(ex(F(3, 4)))
    mk = entropy_markov(build_d_adic(2), H((F(3, 4), F(1))))
    assert abs(kn.entropy - mk.entropy) < 1e-9
    assert abs(kn.entropy - LOG_GOLDEN) < 1e-12
    assert abs(mk.entropy - LOG_GOLDEN) < 1e-12
    tree = refine(build_d_adic(2), H((F(3, 4), F(1))), 24)
    assert tree.counts == [FIB[n + 1] for n in range(1, 25)]  # F_{n+2}
    assert tree.count(24) == 121393
    oracle24 = entropy_estimate(tree, 24)
    assert abs(oracle24 - LOG_GOLDEN) <= 0.01
    _report(1, "golden-ratio entropy for the left hole, three engines", t0, 10)


def test_criterion_2_preperiodic_two_thirds():
    t0 = time.time()
    orbit = build_orbit(ex(F(2, 3)))
    assert orbit.termination.kind == "preperiodic"
    assert (orbit.termination.n, orbit.termination.j) == (2, 1)
    ser = determinant(orbit, 12)
    assert ser.closed_form["kind"] == "factored"
    assert ser.closed_form["period"] == 2
    # period-2 coefficient tail: 1 on even indices
    assert ser.coefficients == tuple(1 if k % 2 == 0 else 0 for k in range(13))
    res = entropy_left_hole(ex(F(2, 3)))
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    r = res.root.r
    assert abs(r * r + r - 1) < 1e-12  # root of z^2 + z - 1
    _report(2, "pre-periodic orbit at a=2/3 with factored determinant", t0, 1)


def test_criterion_3_double_pole():
    t0 = time.time()
    res = entropy_markov(build_d_adic(2), H((F(3, 4), F(5, 6))))
    # char poly = x (x^2 - x - 1)^2, ascending coefficients
    assert list(res.matrix.char_poly) == [0, 1, 2, -1, -2, 1]
    rep = res.report
    assert rep.min_poly == (-1, -1, 1)  # rho is exactly the golden ratio
    lo, hi = rep.rho_bracket
    # exact certification: x^2 - x - 1 changes sign across the bracket
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1
    assert rep.algebraic_multiplicity == 2
    assert rep.geometric_multiplicity == 1
    assert rep.pole_order_p == 2
    assert abs(res.entropy - LOG_GOLDEN) < 1e-12
    alpha = res.entropy / (rep.pole_order_p * LOG2)
    assert round(alpha, 4) == 0.3471
    _report(3, "double pole at hole [3/4, 5/6] with exact spectrum", t0, 5)


def test_criterion_4_sliding_dip():
    t0 = time.time()
    fam = SlidingHoleFamily(F(1, 12))
    spec = SweepSpec(fam, F(7, 10), F(4, 5), 129, engine="markov",
                     extra_points=(F(3, 4),))
    res = run_sweep(spec)
    assert all(r.status == "ok" for r in res.rows)
    by_s = {r.s: r.entropy for r in res.rows}
    grid = sorted(by_s)
    i = grid.index(F(3, 4))
    assert by_s[F(3, 4)] < by_s[grid[i - 1]]
    assert by_s[F(3, 4)] < by_s[grid[i + 1]]
    _report(4, "sliding-hole sweep dips at a=3/4", t0, 60)


def test_criterion_5_holder_bound():
    t0 = time.time()
    scales = [F(1, 2 ** k) for k in range(6, 17)]
    fam = LeftHoleFamily()
    ok = verify_holder_bound(fam, F(3, 4), 1, LOG2, scales)
    assert ok.passed
    bad = verify_holder_bound(fam, F(3, 4), 1, LOG2, scales, exponent_offset=0.3)
    assert not bad.passed
    _report(5, "regularity bound holds at the target exponent, fails inflated",
            t0, 120)


def test_criterion_6_monotone_sweep_and_agreement():
    t0 = time.time()
    spec_k = SweepSpec(LeftHoleFamily(), F(11, 20), F(19, 20), 257,
                       engine="kneading")
    res_k = run_sweep(spec_k)
    hs = [r.entropy for r in res_k.rows]
    assert len(hs) == 257 and all(h is not None for h in hs)
    for h1, h2 in zip(hs, hs[1:]):
        assert h1 <= h2 + 1e-10
    spec_m = SweepSpec(LeftHoleFamily(), F(11, 20), F(19, 20), 257,
                       engine="markov")
    res_m = run_sweep(spec_m)
    for rk, rm in zip(res_k.rows, res_m.rows):
        assert rm.status == "ok"
        assert abs(rk.entropy - rm.entropy) < 1e-9
    _report(6, "left-hole sweep monotone; kneading and markov agree", t0, 60)


def test_criterion_7_diagnostics():
    t0 = time.time()
    m = build_d_adic(2)
    for n in range(1, 21):
        d = expansion_diagnostics(m, n)
        assert d.lambda_n == LOG2
        assert d.xi_n == LOG2
    for hole in (H((F(3, 4), F(1))), H((F(3, 4), F(5, 6))), H((F(1, 2), F(1)))):
        for n in (1, 4, 8):
            d = expansion_diagnostics(m, n, hole=hole)
            assert d.theta_n == 0.0
            tree = refine(m, hole, n)
            max_comp = max(len(c.components) for c in tree.cylinders(n))
            var_bound = 2 * max_comp + 2
            assert d.a_n <= 3 + var_bound
            assert d.A_n <= (4 + var_bound) * 2 ** n
    _report(7, "expansion and variation diagnostics for the doubling map", t0, 30)


def test_criterion_8_farey_discontinuity():
    t0 = time.time()
    t_small = refine(build_scaled_farey(ex(F(2, 5))), Hole.empty(), 15)
    for n in range(2, 16):
        assert t_small.count(n) <= 2
    t_full = refine(build_scaled_farey(ex(1)), Hole.empty(), 12)
    assert t_full.counts == [2 ** n for n in range(1, 13)]
    t_mid = refine(build_scaled_farey(ex(F(4, 5))), Hole.empty(), 12)
    assert t_mid.counts == [2 ** n for n in range(1, 13)]
    for n in range(1, 13):
        assert abs(entropy_estimate(t_mid, n) - LOG2) < 1e-12
    _report(8, "scaled-Farey entropy jump across a=1/2", t0, 60)


def test_criterion_9_pseudometric_and_plumbing(tmp_path):
    t0 = time.time()
    rng = random.Random(31415)

    def random_hole():
        pieces = []
        for _ in range(rng.randrange(0, 4)):
            lo = F(rng.randrange(0, 96), 96)
            hi = min(F(1), lo + F(rng.randrange(0, 24), 96))
            pieces.append((ex(lo), ex(hi)))
        return Hole(pieces)

    holes = [random_hole() for _ in range(1000)]
    for h in holes:
        assert hole_dist(h, h) == 0
    for _ in range(1000):
        h1, h2, h3 = rng.choice(holes), rng.choice(holes), rng.choice(holes)
        d12 = hole_dist(h1, h2)
        assert d12 >= 0
        assert d12 == hole_dist(h2, h1)
        assert d12 <= hole_dist(h1, h3) + hole_dist(h3, h2)

    # JSON round trip is exact and deterministic
    m = build_scaled_farey(ex(F(4, 5)))
    hole = H((F(1, 3), F(2, 5)))
    cfg = map_to_config(m, hole)
    text1 = json.dumps(cfg, sort_keys=True)
    m2, h2 = map_from_config(json.loads(text1))
    assert json.dumps(map_to_config(m2, h2), sort_keys=True) == text1

    # CSV emission is byte-identical across runs
    spec = SweepSpec(LeftHoleFamily(), F(5, 8), F(3, 4), 5, engine="kneading")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec), str(p1))
    emit_csv(run_sweep(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    _report(9, "hole pseudometric properties and deterministic export", t0, 10)
