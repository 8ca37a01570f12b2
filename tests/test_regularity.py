import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from holed_entropy import (CustomFamily, Hole, InvalidParameterError,
                           LeftHoleFamily, SlidingHoleFamily, SweepSpec,
                           build_d_adic, emit_csv, emit_svg_plot,
                           entropy_left_hole, hole_dist, holder_estimate,
                           run_sweep, verify_holder_bound)
from holed_entropy.markov import entropy_markov
from holed_entropy.regularity import entropy_at

LOG2 = math.log(2)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def F(n, d=1):
    return Fraction(n, d)


# -- families -----------------------------------------------------------------

def test_left_family_lipschitz_in_hole_distance():
    fam = LeftHoleFamily()
    for s, t in [(F(5, 8), F(3, 4)), (F(11, 16), F(7, 8))]:
        d = hole_dist(fam.hole(s), fam.hole(t))
        assert d == abs(s - t)


def test_sliding_family_distance():
    fam = SlidingHoleFamily(F(1, 12))
    # symmetric difference doubles small shifts and saturates at 2w
    for s, t in [(F(1, 4), F(1, 4) + F(1, 100)), (F(1, 8), F(1, 8) + F(1, 50))]:
        d = hole_dist(fam.hole(s), fam.hole(t))
        assert d == 2 * min(abs(s - t), F(1, 12))
    far = hole_dist(fam.hole(F(1, 8)), fam.hole(F(1, 2)))
    assert far == 2 * F(1, 12)


def test_family_admissibility():
    assert LeftHoleFamily().admissible(F(3, 4))
    assert not LeftHoleFamily().admissible(F(1, 2))
    fam = SlidingHoleFamily(F(1, 12))
    assert fam.admissible(F(3, 4))
    assert not fam.admissible(F(12, 13))


# -- grids / sweeps --------------------------------------------------------------

def test_grid_generation_exact():
    spec = SweepSpec(LeftHoleFamily(), F(11, 20), F(19, 20), 5)
    assert spec.grid() == [F(11, 20), F(13, 20), F(3, 4), F(17, 20), F(19, 20)]


def test_grid_extra_points_merged():
    spec = SweepSpec(LeftHoleFamily(), F(7, 10), F(4, 5), 3,
                     extra_points=(F(3, 4), F(29, 40)))
    g = spec.grid()
    assert F(3, 4) in g and F(29, 40) in g
    assert g == sorted(set(g))


def test_grid_degenerate_two_points():
    spec = SweepSpec(LeftHoleFamily(), F(3, 5), F(4, 5), 2)
    res = run_sweep(spec)
    assert len(res.rows) == 2


def test_sweep_left_hole_monotone_kneading():
    spec = SweepSpec(LeftHoleFamily(), F(9, 16), F(15, 16), 33, engine="kneading")
    res = run_sweep(spec)
    hs = res.entropies()
    assert len(hs) == 33
    for h1, h2 in zip(hs, hs[1:]):
        assert h1 <= h2 + 1e-10
    assert all(0 <= h <= LOG2 + 1e-12 for h in hs)


def test_markov_sweep_error_bound_covers_rho_bracket():
    fam = SlidingHoleFamily(F(1, 12))
    spec = SweepSpec(fam, F(71, 100), F(79, 100), 9, engine="markov")
    rows = run_sweep(spec).rows
    assert F(3, 4) in [r.s for r in rows]  # the double pole is one of them
    for row in rows:
        assert row.status == "ok"
        assert 0 <= row.error_bound < 1e-12
        lo, hi = entropy_markov(fam.map(), fam.hole(row.s)).report.rho_bracket
        for end in (lo, hi):
            assert abs(row.entropy - max(math.log(end), 0.0)) <= row.error_bound


def test_kneading_sweep_error_bound_covers_the_entropy_interval():
    # the bound is on the entropy -log r, not on r: |dh/dr| = 1/r nears 2 as
    # a nears 1, so at 47/48 the width of the r-bracket alone falls short
    spec = SweepSpec(LeftHoleFamily(), F(11, 20), F(19, 20), 257,
                     engine="kneading", extra_points=(F(47, 48), F(94, 95)))
    rows = run_sweep(spec).rows
    assert len(rows) == 259
    for row in rows:
        assert row.status == "ok"
        lo, hi = entropy_left_hole(row.s).interval
        assert row.entropy - row.error_bound <= lo <= hi <= row.entropy + row.error_bound


def _run_probe(probe: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_markov_sweep_does_not_import_sympy():
    # simple leading roots need no minimal polynomial, and the double pole
    # at 3/4 (alg 2) has a certified one, so no sympy either way
    probe = ("import sys\n"
             "from fractions import Fraction as F\n"
             "from holed_entropy import SlidingHoleFamily, SweepSpec, run_sweep\n"
             "spec = SweepSpec(SlidingHoleFamily(F(1, 12)), F(7, 10), F(4, 5), 9,"
             " engine='markov')\n"
             "rows = run_sweep(spec).rows\n"
             "want = [(1 + (r.s == F(3, 4)), 'ok') for r in rows]\n"
             "assert [(r.p, r.status) for r in rows] == want, rows\n"
             "assert F(3, 4) in [r.s for r in rows]\n"
             "print('sympy' in sys.modules)\n")
    assert _run_probe(probe).splitlines()[-1] == "False"


def test_double_pole_spectrum_does_not_import_sympy():
    probe = ("import sys\n"
             "from holed_entropy.cli import main\n"
             "assert main(['spectrum', '--map', 'doubling', '--hole', '3/4,5/6']) == 0\n"
             "print('sympy' in sys.modules)\n")
    *report, loaded = _run_probe(probe).splitlines()
    assert loaded == "False"
    data = json.loads("\n".join(report))
    assert data["min_poly"] == [-1, -1, 1] and data["p"] == 2
    assert data["alg_mult"] == 2 and data["geo_mult"] == 1
    assert data["char_poly_coeffs"] == [0, 1, 2, -1, -2, 1]
    assert abs(data["entropy"] - LOG_GOLDEN) < 1e-12


def test_sweep_rows_sorted_and_ok():
    spec = SweepSpec(LeftHoleFamily(), F(5, 8), F(7, 8), 9, engine="markov")
    res = run_sweep(spec)
    ss = [r.s for r in res.rows]
    assert ss == sorted(ss)
    assert all(r.status == "ok" for r in res.rows)
    assert all(r.p is not None for r in res.rows)


def test_sweep_engine_cross_agreement():
    spec_k = SweepSpec(LeftHoleFamily(), F(9, 16), F(7, 8), 17, engine="kneading")
    spec_m = SweepSpec(LeftHoleFamily(), F(9, 16), F(7, 8), 17, engine="markov")
    hk = run_sweep(spec_k).entropies()
    hm = run_sweep(spec_m).entropies()
    assert max(abs(a - b) for a, b in zip(hk, hm)) < 1e-9
    spec_o = SweepSpec(LeftHoleFamily(), F(9, 16), F(7, 8), 9, engine="oracle",
                       depth=20)
    ho = run_sweep(spec_o).entropies()
    hk9 = run_sweep(SweepSpec(LeftHoleFamily(), F(9, 16), F(7, 8), 9)).entropies()
    assert max(abs(a - b) for a, b in zip(ho, hk9)) < 0.05


def test_sweep_flagged_rows_continue():
    # a custom family whose first point passes the state cap
    m = build_d_adic(2)

    def mk_hole(s):
        if s == F(1, 2):
            # 2 has order 10036 modulo 10037
            return Hole([(F(1, 10037), F(2, 10037))])
        return Hole([(s, 1)])

    fam = CustomFamily(m, mk_hole, name="mixed")
    spec = SweepSpec(fam, F(1, 2), F(3, 4), 3, engine="markov")
    res = run_sweep(spec)
    statuses = [r.status for r in res.rows]
    assert statuses[0] == "error:ResourceLimitError"
    assert statuses[1] == "ok" and statuses[2] == "ok"


def test_sliding_sweep_dip_at_three_quarters():
    fam = SlidingHoleFamily(F(1, 12))
    spec = SweepSpec(fam, F(7, 10), F(4, 5), 17, engine="markov",
                     extra_points=(F(3, 4),))
    res = run_sweep(spec)
    by_s = {r.s: r.entropy for r in res.rows}
    grid = sorted(by_s)
    i = grid.index(F(3, 4))
    assert by_s[F(3, 4)] < by_s[grid[i - 1]]
    assert by_s[F(3, 4)] < by_s[grid[i + 1]]


# -- regularity estimation ---------------------------------------------------------

SCALES = [Fraction(1, 2 ** k) for k in range(6, 17)]


def test_holder_estimate_left_hole():
    est = holder_estimate(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES)
    assert abs(est.alpha_target - LOG_GOLDEN / LOG2) < 1e-12
    assert est.fitted_exponent is not None
    assert abs(est.fitted_exponent - est.alpha_target) < 0.1
    assert not est.locally_constant
    assert est.constant > 0
    assert len(est.constant_per_mesh) == len(SCALES)


def test_holder_estimate_deterministic():
    e1 = holder_estimate(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES)
    e2 = holder_estimate(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES)
    assert e1 == e2


def test_holder_estimate_double_pole_target():
    fam = SlidingHoleFamily(F(1, 12))
    est = holder_estimate(fam, F(3, 4), 2, LOG2, SCALES[:4], engine="markov")
    assert abs(est.alpha_target - LOG_GOLDEN / (2 * LOG2)) < 1e-12
    assert round(est.alpha_target, 4) == 0.3471


def test_holder_zero_entropy_gate():
    # at h(t) = 0 the machinery is skipped: alpha 0, no constants.
    # hole [s, 1] with s < 1/2 leaves a single survivor component per level.
    fam = CustomFamily(build_d_adic(2),
                       lambda s: Hole([(s, 1)]))
    est = holder_estimate(fam, F(1, 4), 1, LOG2,
                          [F(1, 64), F(1, 128)], engine="oracle",
                          depth=12)
    assert est.alpha_target == 0.0
    assert est.fitted_exponent is None


def test_verify_holder_bound_passes_at_target():
    rep = verify_holder_bound(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES)
    assert rep.passed
    assert rep.stability_ratio is not None and rep.stability_ratio <= 4


def test_verify_holder_bound_fails_when_inflated():
    rep = verify_holder_bound(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES,
                              exponent_offset=0.3)
    assert not rep.passed
    assert rep.stability_ratio > 4


def test_verify_requires_positive_entropy():
    fam = CustomFamily(build_d_adic(2),
                       lambda s: Hole([(s, 1)]))
    with pytest.raises(InvalidParameterError):
        verify_holder_bound(fam, F(1, 4), 1, LOG2, [F(1, 64), F(1, 128)],
                            engine="oracle", depth=10)


def test_scales_must_decrease():
    with pytest.raises(InvalidParameterError):
        holder_estimate(LeftHoleFamily(), F(3, 4), 1, LOG2, [F(1, 64), F(1, 32)])


@pytest.mark.parametrize("fn", [holder_estimate, verify_holder_bound])
@pytest.mark.parametrize("p, xi, scales", [
    (0, LOG2, SCALES[:2]),
    (1, 0.0, SCALES[:2]),
    (1, -1.0, SCALES[:2]),
    (1, math.inf, SCALES[:2]),
    (1, math.nan, SCALES[:2]),
    (1, LOG2, SCALES[:1]),
    (1, LOG2, [F(1, 64), F(0)]),
])
def test_holder_rejects_bad_input_before_sampling(monkeypatch, fn, p, xi, scales):
    from holed_entropy import regularity

    def never(*args, **kwargs):
        raise AssertionError("entropy evaluated before validation")

    monkeypatch.setattr(regularity, "entropy_at", never)
    with pytest.raises(InvalidParameterError):
        fn(LeftHoleFamily(), F(3, 4), p, xi, scales)


def test_bound_check_matches_verify_holder_bound():
    est = holder_estimate(LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES)
    assert len(est.differences) == len(SCALES)
    assert all(dh > 0 for dh in est.differences)
    assert est.bound_check().constant_per_mesh == est.constant_per_mesh
    for offset in (0.0, 0.3):
        assert est.bound_check(offset) == verify_holder_bound(
            LeftHoleFamily(), F(3, 4), 1, LOG2, SCALES, exponent_offset=offset)


def test_entropy_at_engine_mismatch():
    with pytest.raises(InvalidParameterError):
        entropy_at(SlidingHoleFamily(F(1, 12)), F(3, 4), "kneading")


# -- emitters ------------------------------------------------------------------------

def test_emit_csv(tmp_path):
    spec = SweepSpec(LeftHoleFamily(), F(5, 8), F(7, 8), 5, engine="kneading")
    res = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    emit_csv(res, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,s_exact,entropy,p,engine,error_bound,status"
    assert len(lines) == 6
    assert ",5/8," in lines[1] and lines[1].endswith("ok")


def test_emit_csv_flagged_rows(tmp_path):
    m = build_d_adic(2)
    # holes [s/10037, (s + 1)/10037]: orbits of period 10036 pass the state cap
    fam = CustomFamily(m, lambda s: Hole([(s / 10037, (s + 1) / 10037)]))
    res = run_sweep(SweepSpec(fam, F(5, 8), F(3, 4), 2, engine="markov"))
    path = tmp_path / "flagged.csv"
    emit_csv(res, str(path))
    body = path.read_text().strip().splitlines()[1:]
    assert len(body) == 2
    assert all("error:ResourceLimitError" in line for line in body)


def test_emit_csv_refuses_empty(tmp_path):
    from holed_entropy.regularity import SweepResult
    with pytest.raises(InvalidParameterError):
        emit_csv(SweepResult([], {}), str(tmp_path / "x.csv"))


def test_emit_svg(tmp_path):
    spec = SweepSpec(LeftHoleFamily(), F(5, 8), F(7, 8), 9, engine="kneading")
    res = run_sweep(spec)
    path = tmp_path / "plot.svg"
    emit_svg_plot(res, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in text
    assert "<polyline" in text
    assert "entropy sweep (kneading)" in text


def test_emit_svg_refuses_empty(tmp_path):
    from holed_entropy.regularity import SweepResult
    with pytest.raises(InvalidParameterError):
        emit_svg_plot(SweepResult([], {}), str(tmp_path / "x.svg"))
