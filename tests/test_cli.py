import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from holed_entropy import build_orbit, determinant, entropy_left_hole
from holed_entropy.cli import main
from holed_entropy.mapmodel import map_from_config
from holed_entropy.polyexact import sign_at

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cold_cli(command, *argv):
    """stdout of a fresh run of one CLI command, then the modules it loaded:
    its ``holed_entropy.*`` modules, and numpy if it imported numpy."""
    probe = ("import json, runpy, sys\n"
             f"sys.argv = ['holed_entropy.cli', {command!r}, *{list(argv)!r}]\n"
             "try:\n"
             "    runpy.run_module('holed_entropy.cli', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    assert not exc.code, exc.code\n"
             "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy'\n"
             "                        or m.startswith('holed_entropy.'))))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, _, loaded = proc.stdout.rstrip("\n").rpartition("\n")
    return out, set(json.loads(loaded))


def engines(loaded):
    """The package's own modules among ``loaded``, without the prefix."""
    return {m.split(".", 1)[1] for m in loaded if m.startswith("holed_entropy.")}


def test_oracle_cold_start_does_not_import_numpy():
    # the oracle counts along the window ends' orbits, on Python integers,
    # and loads only the map model and the cylinder engine
    out, loaded = cold_cli("oracle", "--map", "doubling", "--hole", "3/4,1", "--depth", "10")
    assert "level 10: count 144" in out
    assert "numpy" not in loaded
    assert engines(loaded) == {"cylinders", "errors", "mapmodel"}


def test_oracle_on_farey_to_depth_14_does_not_import_numpy():
    # a Moebius map with 2^14 survivors: refine counts them along the
    # orbits of the window ends and writes no endpoints
    out, loaded = cold_cli("oracle", "--map", "farey", "--param", "4/5", "--depth", "14")
    assert "level 14: count 16384" in out
    assert "numpy" not in loaded


def test_double_pole_spectrum_does_not_import_numpy():
    # spectrum reads rho and p from the characteristic polynomial, and
    # min_poly screens its cyclotomic candidates in plain Python; it loads
    # the Markov engine and no other
    out, loaded = cold_cli("spectrum", "--map", "doubling", "--hole", "3/4,5/6")
    d = json.loads(out)
    assert (d["p"], d["alg_mult"], d["min_poly"]) == (2, 2, [-1, -1, 1])
    assert "numpy" not in loaded
    assert engines(loaded) == {"errors", "mapmodel", "markov", "minpoly",
                               "polyexact"}


def test_tower_cold_start_loads_only_the_tower_engine():
    out, loaded = cold_cli("tower", "--a", "2/3")
    assert json.loads(out)["certified"] is True
    assert "numpy" not in loaded
    assert engines(loaded) == {"errors", "kneading", "mapmodel", "polyexact"}


@pytest.mark.parametrize("command", [None, "entropy", "tower", "spectrum",
                                     "oracle", "sweep", "holder", "diag"])
def test_help_is_unchanged(capsys, monkeypatch, command):
    # the parser is built without any engine, and its defaults are resolved
    # in the commands, so every help text stays as stored
    monkeypatch.setenv("COLUMNS", "80")
    stored = Path(__file__).parent / "cli_help" / f"{command or 'holed-entropy'}.txt"
    code, out, _ = run(capsys, *[c for c in [command] if c], "--help")
    assert code == 0
    assert out == stored.read_text(encoding="utf-8")


def test_entropy_kneading(capsys):
    code, out, _ = run(capsys, "entropy", "--map", "doubling", "--hole", "3/4,1",
                       "--engine", "kneading")
    assert code == 0
    assert "0.4812118" in out
    assert "p=1" in out


def test_entropy_kneading_default_tol_is_the_tower_default(capsys, tmp_path):
    # without --tol both commands use kneading.DEFAULT_TOL
    entropy, tower = tmp_path / "entropy.json", tmp_path / "tower.json"
    assert run(capsys, "entropy", "--map", "doubling", "--hole", "2/3,1",
               "--engine", "kneading", "--json", str(entropy))[0] == 0
    assert run(capsys, "tower", "--a", "2/3", "--json", str(tower))[0] == 0
    assert entropy.read_text() == tower.read_text()


def test_entropy_markov(capsys):
    code, out, _ = run(capsys, "entropy", "--map", "doubling", "--hole", "3/4,5/6",
                       "--engine", "markov")
    assert code == 0
    assert "p=2" in out
    m = re.search(r"entropy = ([0-9.]+)", out)
    assert abs(float(m.group(1)) - LOG_GOLDEN) < 1e-9


def test_spectrum_json(capsys, tmp_path):
    path = tmp_path / "spec.json"
    code, _, _ = run(capsys, "spectrum", "--map", "doubling", "--hole", "3/4,5/6",
                     "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["char_poly_coeffs"] == [0, 1, 2, -1, -2, 1]
    assert data["p"] == 2 and data["alg_mult"] == 2 and data["geo_mult"] == 1
    assert data["min_poly"] == [-1, -1, 1]


def test_spectrum_dot(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "spectrum", "--map", "doubling", "--hole", "3/4,1",
                     "--dot", str(dot))
    assert code == 0
    assert "digraph" in dot.read_text()


def test_oracle_farey_counts(capsys):
    code, out, _ = run(capsys, "oracle", "--map", "farey", "--param", "1",
                       "--depth", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("level")]
    assert len(lines) == 10
    for n, line in enumerate(lines, start=1):
        assert f"count {2 ** n}," in line


def test_oracle_json_report(capsys, tmp_path):
    path = tmp_path / "o.json"
    code, out, _ = run(capsys, "oracle", "--map", "doubling", "--hole", "3/4,1",
                       "--depth", "3", "--json", str(path))
    assert code == 0
    levels = json.loads(path.read_text())["levels"]
    assert [(lv["level"], lv["count"]) for lv in levels] == [(1, 2), (2, 3), (3, 5)]
    for lv, line in zip(levels, out.splitlines()):
        assert line == (f"level {lv['level']}: count {lv['count']}, "
                        f"entropy {lv['entropy']:.15g}")


def test_entropy_oracle_json_report(capsys, tmp_path):
    path = tmp_path / "e.json"
    code, out, _ = run(capsys, "entropy", "--engine", "oracle", "--map", "doubling",
                       "--hole", "3/4,1", "--depth", "6", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert (data["level"], data["count"]) == (6, 21)
    assert out.startswith(f"entropy = {data['entropy']:.15g}  (engine=oracle, "
                          f"level=6, count=21)")


@pytest.mark.parametrize("decimal,exact", [
    (("oracle", "--map", "doubling", "--hole", "0.3,0.35", "--depth", "12"),
     ("oracle", "--map", "doubling", "--hole", "3/10,7/20", "--depth", "12")),
    (("oracle", "--map", "farey", "--param", "0.8", "--hole", "0.75,1", "--depth", "10"),
     ("oracle", "--map", "farey", "--param", "4/5", "--hole", "3/4,1", "--depth", "10")),
    (("spectrum", "--map", "doubling", "--hole", "0.75,0.8"),
     ("spectrum", "--map", "doubling", "--hole", "3/4,4/5")),
])
def test_decimals_are_the_rationals_they_spell(capsys, decimal, exact):
    code, out, err = run(capsys, *decimal)
    assert code == 0, err
    assert err == ""
    assert (code, out, err) == run(capsys, *exact)


def test_epsilon_is_a_tower_flag_only(capsys):
    code, _, err = run(capsys, "oracle", "--map", "doubling", "--hole", "3/4,1",
                       "--epsilon", "1e-9")
    assert code == 2 and "--epsilon" in err


def test_tower_json(capsys):
    code, out, _ = run(capsys, "tower", "--a", "2/3")
    assert code == 0
    data = json.loads(out)
    assert data["termination"]["kind"] == "preperiodic"
    assert abs(data["entropy"] - LOG_GOLDEN) < 1e-12
    assert data["p"] == 1


@pytest.mark.parametrize("a", ["351/355", "206/213", "288/289", "331/334",
                               "307/368", "337/376", "397/488", "597/614",
                               "647/661"])
def test_tower_certifies_noisy_float_sign_rows(capsys, a):
    # a bracket that fails exact sign certification exits 3
    code, out, err = run(capsys, "tower", "--a", a)
    assert code == 0, err
    data = json.loads(out)
    code, text, _ = run(capsys, "entropy", "--map", "doubling", "--hole", f"{a},1",
                        "--engine", "markov")
    assert code == 0
    markov = float(re.search(r"entropy = ([0-9.e-]+)", text).group(1))
    assert abs(data["entropy"] - markov) < 1e-12
    # the determinant changes sign within error_bound of r, by integer Horner
    poly = list(determinant(build_orbit(Fraction(a))).polynomial)
    r, bound = Fraction(data["r"]), Fraction(data["error_bound"])
    lo, hi = r - bound, r + bound
    assert sign_at(poly, lo.numerator, lo.denominator) > 0
    assert sign_at(poly, hi.numerator, hi.denominator) < 0


def test_tower_tol_below_the_float_spacing_exits_promptly():
    # one float spacing near r = 0.618 is 1.1e-16 > tol; the root bracket
    # used to never get narrow enough, and the command did not return
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "holed_entropy.cli", "tower",
                           "--a", "2/3", "--tol", "1e-16"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["certified"] is True
    # the bracket is r and its neighbouring float, so error_bound covers it
    r, bound = data["r"], data["error_bound"]
    assert bound >= math.ulp(r)
    poly = list(determinant(build_orbit(Fraction(2, 3))).polynomial)
    lo, hi = Fraction(r) - Fraction(bound), Fraction(r) + Fraction(bound)
    assert sign_at(poly, lo.numerator, lo.denominator) > 0
    assert sign_at(poly, hi.numerator, hi.denominator) < 0


def test_sweep_csv_and_svg(capsys, tmp_path):
    csv = tmp_path / "s.csv"
    svg = tmp_path / "s.svg"
    code, out, _ = run(capsys, "sweep", "--family", "left", "--start", "5/8",
                       "--end", "7/8", "--count", "9", "--engine", "kneading",
                       "--csv", str(csv), "--svg", str(svg))
    assert code == 0
    assert "swept 9 points" in out
    assert csv.read_text().startswith("s,s_exact,entropy")
    assert svg.read_text().startswith("<svg")


def test_holder_report(capsys):
    code, out, _ = run(capsys, "holder", "--family", "left", "--t", "3/4",
                       "--scale-from", "6", "--scale-to", "12")
    assert code == 0
    data = json.loads(out)
    assert abs(data["alpha_target"] - LOG_GOLDEN / math.log(2)) < 1e-12
    assert data["bound_check"]["passed"] is True


def test_diag_json(capsys):
    code, out, _ = run(capsys, "diag", "--map", "doubling", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["lambda_n"] == math.log(2)
    assert data["xi_n"] == math.log(2)


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in JSON output")
    return json.loads(text, parse_constant=refuse)


def test_diag_json_is_strict_when_every_point_escapes(capsys):
    code, out, _ = run(capsys, "diag", "--map", "doubling", "--n", "3", "--hole", "0,1")
    assert code == 0
    data = _strict_json(out)
    assert data["theta_n"] is None
    assert (data["a_n"], data["A_n"]) == (0.0, 0.0)
    # a finite theta_n is written as the number it is
    code, out, _ = run(capsys, "diag", "--map", "doubling", "--n", "3")
    assert _strict_json(out)["theta_n"] == 0.0


def test_diag_dump_config_roundtrip(capsys):
    code, out, _ = run(capsys, "diag", "--map", "farey", "--param", "4/5",
                       "--dump-config")
    assert code == 0
    cfg = json.loads(out)
    pmap, _ = map_from_config(cfg)
    assert len(pmap.branches) == 2
    code2, out2, _ = run(capsys, "diag", "--map", "farey", "--param", "4/5",
                         "--dump-config")
    assert out2 == out  # byte-identical


def test_bare_decimal_warns_float_mode(capsys):
    code, out, err = run(capsys, "tower", "--a", "0.51")
    assert code == 0
    assert "float mode" in err
    code, _, err = run(capsys, "tower", "--a", "0.7")
    assert code == 0
    assert err.startswith("warning: bare decimal '0.7' parsed in float mode")
    data = json.loads(out)
    assert data["certified"] is True
    lo, hi = data["interval"]
    assert 0 < lo <= data["entropy"] <= hi < math.log(2)
    assert [end["termination"]["kind"] for end in data["ends"]] == ["preperiodic"] * 2


@pytest.mark.parametrize("a", ["abc", "1e400", "nan"])
def test_tower_refuses_a_malformed_decimal_without_the_float_warning(capsys, a):
    code, _, err = run(capsys, "tower", "--a", a)
    assert code == 2
    assert err.startswith("error: ") and "warning" not in err


@pytest.mark.parametrize("a", ["0.7", "9004/9007"])
def test_tower_reports_a_certified_enclosure(capsys, a):
    # 0.7 is a float; the orbit of 9004/9007 does not repeat within the
    # cap, and it used to print "certified": false
    code, out, err = run(capsys, "tower", "--a", a)
    assert code == 0, err
    data = json.loads(out)
    assert data["certified"] is True
    lo, hi = data["interval"]
    if a == "0.7":
        assert lo <= LOG_GOLDEN <= hi
    for end in data["ends"]:
        assert end["certified"] is True
        elo, ehi = entropy_left_hole(Fraction(end["a"])).interval
        assert lo <= elo <= ehi <= hi


def test_exit_code_2_on_bad_input(capsys):
    code, _, err = run(capsys, "entropy", "--map", "doubling", "--hole", "3/2,1",
                       "--engine", "kneading")
    assert code == 2
    assert "error" in err


def test_oracle_counts_past_the_component_cap_that_diag_keeps(capsys):
    # counts are uncapped; diag reads components and refuses where it did
    code, out, _ = run(capsys, "oracle", "--map", "doubling", "--hole", "3/4,5/6",
                       "--depth", "40")
    assert code == 0
    assert out.splitlines()[-1].startswith("level 40: count 5080977751, ")
    code, out, err = run(capsys, "diag", "--map", "doubling", "--hole", "3/4,5/6",
                         "--n", "28")
    assert code == 3 and out == ""
    assert "component cap 10000000 exceeded at level 28" in err


def test_exit_code_2_on_a_sweep_at_oracle_depth_0(capsys):
    code, out, err = run(capsys, "sweep", "--family", "sliding", "--width", "1/12",
                         "--start", "1/10", "--end", "1/5", "--count", "3",
                         "--engine", "oracle", "--oracle-depth", "0")
    assert code == 2 and out == ""
    assert err == "error: the oracle engine needs depth >= 1\n"


def test_exit_code_2_on_unknown_map(capsys):
    code, _, _ = run(capsys, "entropy", "--map", "nonsense", "--hole", "3/4,1")
    assert code == 2


def test_exit_code_2_on_malformed_d_adic(capsys):
    for name in ("d-adic:x", "d-adic:"):
        code, _, err = run(capsys, "oracle", "--map", name, "--depth", "3")
        assert code == 2
        assert err.startswith("error: d-adic map needs an integer d >= 2")


def test_exit_code_2_on_huge_d_adic(capsys):
    code, _, err = run(capsys, "oracle", "--map", "d-adic:99999999999", "--depth", "1")
    assert code == 2
    assert err.startswith("error: d-adic map needs d <= ")


def test_exit_code_2_on_a_diag_level_that_overflows(capsys):
    code, _, err = run(capsys, "diag", "--map", "doubling", "--n", "1024")
    assert code == 2
    assert err.startswith("error: level n = 1024 ")


def test_exit_code_2_on_malformed_rational(capsys):
    code, _, _ = run(capsys, "entropy", "--map", "doubling", "--hole", "abc,1")
    assert code == 2


def test_exit_code_3_on_engine_error(capsys):
    # the closure passes the 400-state cap: 2 has order 10036 modulo 10037
    code, _, err = run(capsys, "spectrum", "--map", "doubling",
                       "--hole", "1/10037,2/10037")
    assert code == 3
    assert "engine error" in err and "400 states" in err


def test_exit_code_3_on_a_d_adic_map_past_the_state_cap(capsys):
    # 401 branch domains are 401 initial states: refused before any orbit
    code, _, err = run(capsys, "spectrum", "--map", "d-adic:401")
    assert code == 3
    assert "passed 400 states" in err


@pytest.mark.parametrize("argv", (["entropy", "--engine", "markov"], ["spectrum"]),
                         ids=("entropy", "spectrum"))
def test_orbit_cap_flag_is_gone(capsys, argv):
    code, _, err = run(capsys, *argv, "--map", "doubling", "--hole", "3/4,5/6",
                       "--orbit-cap", "40")
    assert code == 2
    assert "unrecognized arguments: --orbit-cap" in err


def test_exit_code_3_when_an_uncertified_min_poly_needs_missing_sympy(tmp_path):
    # [1/6, 5/18] keeps a non-cyclotomic extra factor, so naming min_poly
    # needs sympy; an import that fails must not escape as ImportError
    (tmp_path / "sympy.py").write_text(
        "raise ModuleNotFoundError(\"No module named 'sympy'\", name='sympy')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    argv = [sys.executable, "-m", "holed_entropy.cli", "spectrum", "--map", "doubling"]
    proc = subprocess.run(argv + ["--hole", "1/6,5/18"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "engine error" in proc.stderr and "holed-entropy[sympy]" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = subprocess.run(argv + ["--hole", "3/4,5/6"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and json.loads(proc.stdout)["min_poly"] == [-1, -1, 1]


def test_exit_code_2_on_non_finite_input(capsys):
    for argv in (("tower", "--a", "2/3", "--tol", "nan"),
                 ("tower", "--a", "0.7", "--epsilon", "inf"),
                 ("spectrum", "--map", "doubling", "--hole", "3/4,5/6", "--tol", "nan"),
                 ("oracle", "--map", "farey", "--param", "0.8", "--hole", "nan,0.9",
                  "--depth", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.splitlines()[-1].startswith("error: "), argv
        if "--epsilon" in argv:
            assert "epsilon must be positive and finite" in err


def test_exit_code_2_on_unknown_flag(capsys):
    assert main(["entropy", "--bogus"]) == 2


def test_deterministic_json_output(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "spectrum", "--map", "doubling", "--hole", "3/4,5/6",
        "--json", str(p1))
    run(capsys, "spectrum", "--map", "doubling", "--hole", "3/4,5/6",
        "--json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_deterministic_csv_output(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        run(capsys, "sweep", "--family", "left", "--start", "5/8", "--end", "3/4",
            "--count", "5", "--csv", str(p))
    assert p1.read_bytes() == p2.read_bytes()


def test_json_config_map_source(capsys, tmp_path):
    cfg = tmp_path / "map.json"
    run(capsys, "diag", "--map", "doubling", "--dump-config", "--json", str(cfg))
    code, out, _ = run(capsys, "oracle", "--map", str(cfg), "--hole", "3/4,1",
                       "--depth", "6")
    assert code == 0
    assert "count 21," in out


_DOUBLING_CONFIG = ('{"codomain": ["0", "1"], "branches": ['
                   '{"domain": ["0", "1/2"], "kind": "affine", "coeffs": ["2", "0"]}, '
                   '{"domain": ["1/2", "1"], "kind": "affine", "coeffs": ["2", "-1"]}]}')
# the README's config: the doubling map with the hole [3/4, 1]
_HOLED_CONFIG = _DOUBLING_CONFIG[:-1] + ', "hole": [["3/4", "1"]]}'


def test_json_config_hole_is_used_without_hole_flag(capsys, tmp_path):
    cfg = tmp_path / "holed.json"
    cfg.write_text(_HOLED_CONFIG)
    code, out, _ = run(capsys, "oracle", "--map", str(cfg), "--depth", "4")
    _, want, _ = run(capsys, "oracle", "--map", "doubling", "--hole", "3/4,1",
                     "--depth", "4")
    assert code == 0
    assert re.findall(r"count (\d+)", out) == ["2", "3", "5", "8"]
    assert out == want


def test_json_config_hole_and_hole_flag_together_are_an_input_error(capsys, tmp_path):
    cfg = tmp_path / "holed.json"
    cfg.write_text(_HOLED_CONFIG)
    code, out, err = run(capsys, "oracle", "--map", str(cfg), "--hole", "3/4,1",
                         "--depth", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: map config") and "--hole" in err


def test_diag_dump_config_keeps_the_config_hole(capsys, tmp_path):
    cfg = tmp_path / "holed.json"
    cfg.write_text(_HOLED_CONFIG)
    code, out, _ = run(capsys, "diag", "--map", str(cfg), "--dump-config")
    assert code == 0
    assert json.loads(out) == json.loads(_HOLED_CONFIG)


@pytest.mark.parametrize("text, message", (
    (_DOUBLING_CONFIG.replace('"kind": "affine", ', "", 1),
     "each branch needs 'domain', 'kind' and a 'coeffs' list"),
    (_DOUBLING_CONFIG.replace('["0", "1"]', '["0"]'),
     "codomain must be a [lo, hi] pair, got ['0']"),
    (_DOUBLING_CONFIG.replace('["0", "1/2"]', '["0"]'),
     "branch domain must be a [lo, hi] pair, got ['0']"),
    (_DOUBLING_CONFIG[:-3], "cannot read map config"),
), ids=("no-kind", "short-codomain", "short-domain", "truncated"))
def test_exit_code_2_on_malformed_map_config(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "oracle", "--map", str(path), "--depth", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    # the intact config is a working doubling map
    path.write_text(_DOUBLING_CONFIG)
    assert run(capsys, "oracle", "--map", str(path), "--depth", "2")[1] == (
        "level 1: count 2, entropy 0.693147180559945\n"
        "level 2: count 4, entropy 0.693147180559945\n")


def test_tower_cli_does_not_import_the_bench_shim():
    # holed_entropy.scalar exists only for the benchmark harness
    probe = ("import sys\n"
             "from holed_entropy import cli\n"
             "assert cli.main(['tower', '--a', '0.7']) == 0\n"
             "print('holed_entropy.scalar' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"certified": true' in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def test_deterministic_sweep_json(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        run(capsys, "sweep", "--family", "left", "--start", "5/8", "--end", "3/4",
            "--count", "5", "--json", str(p))
    assert p1.read_bytes() == p2.read_bytes()
    assert "generated_at" not in json.loads(p1.read_text())["metadata"]


def test_holder_rejects_bad_xi(capsys):
    for xi in ("0", "-1"):
        code, out, err = run(capsys, "holder", "--family", "left", "--t", "3/4",
                             "--xi", xi)
        assert code == 2 and out == ""
        assert "xi" in err


def test_holder_rejects_a_negative_scale_from(capsys):
    # scales are the exact powers 2^-k; k < 0 used to end in a TypeError
    code, out, err = run(capsys, "holder", "--family", "left", "--t", "3/4",
                         "--scale-from", "-1", "--scale-to", "3")
    assert (code, out) == (2, "")
    assert err == "error: --scale-from must be >= 0 (scales are 2^-k), got -1\n"


def test_holder_samples_the_ladder_once(capsys, monkeypatch):
    from holed_entropy import regularity
    calls = []
    real = regularity.entropy_at

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, "entropy_at", counted)
    code, _, _ = run(capsys, "holder", "--family", "left", "--t", "3/4",
                     "--scale-from", "6", "--scale-to", "16")
    assert code == 0
    assert len(calls) == 23  # h(3/4) plus h(3/4 +- 2^-k) for k = 6..16


def test_a_kneading_sweep_of_sliding_holes_is_refused_before_any_row(capsys,
                                                                     monkeypatch):
    # the tower engine covers left holes only; every row would fail
    from holed_entropy import regularity

    def never(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(regularity, "entropy_at", never)
    code, out, err = run(capsys, "sweep", "--family", "sliding", "--width", "1/12",
                         "--start", "1/10", "--end", "1/5", "--count", "3")
    assert (code, out) == (2, "")
    assert err == ("error: the kneading engine needs the doubling map with hole "
                   "a,1 for exact a in (1/2, 1)\n")


def test_sweep_oracle_engine(capsys, tmp_path):
    csv = tmp_path / "o.csv"
    code, out, _ = run(capsys, "sweep", "--family", "sliding", "--width", "1/12",
                       "--start", "1/4", "--end", "1/2", "--count", "3",
                       "--engine", "oracle", "--oracle-depth", "10",
                       "--csv", str(csv))
    assert code == 0
    body = csv.read_text().strip().splitlines()[1:]
    assert len(body) == 3 and all(",oracle," in line for line in body)


def test_compare_skips_markov_on_farey_below_half(capsys):
    # the Markov closure is refused by its bit budget, not after seconds
    code, out, _ = run(capsys, "entropy", "--engine", "compare", "--map", "farey",
                       "--param", "0.4", "--depth", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["markov_entropy"] is None and rep["applicable"] == ["oracle"]


def test_compare_passes_tol_to_the_tower_and_markov_rows(capsys, tmp_path):
    # compare reports each engine's own run at the given tol
    rows = {}
    for engine in ("kneading", "markov", "compare"):
        path = tmp_path / f"{engine}.json"
        code, _, _ = run(capsys, "entropy", "--engine", engine, "--map", "doubling",
                         "--hole", "3/4,1", "--depth", "12", "--tol", "0.1",
                         "--json", str(path))
        assert code == 0
        rows[engine] = json.loads(path.read_text())
    assert rows["compare"]["kneading_entropy"] == rows["kneading"]["entropy"]
    assert rows["compare"]["markov_entropy"] == rows["markov"]["entropy"]
    # a tol no engine takes is refused, not ignored
    code, _, err = run(capsys, "entropy", "--engine", "compare", "--map", "doubling",
                       "--hole", "3/4,1", "--depth", "12", "--tol", "0")
    assert code == 2 and "tol must be positive" in err


def test_oracle_refuses_tol(capsys):
    code, out, err = run(capsys, "entropy", "--engine", "oracle", "--map", "doubling",
                         "--hole", "3/4,1", "--depth", "12", "--tol", "1e-9")
    assert code == 2 and out == ""
    assert err == "error: the oracle engine takes no tol\n"


def test_entropy_markov_reads_no_min_poly_without_json(capsys, monkeypatch):
    # the report, and with it min_poly, is built only for --json
    from holed_entropy import minpoly

    def refused(*args):
        raise AssertionError("min_poly was read")
    monkeypatch.setattr(minpoly, "min_poly_of_root", refused)
    code, out, _ = run(capsys, "entropy", "--engine", "markov", "--map", "doubling",
                       "--hole", "7/10,47/60")
    assert code == 0 and "p=1" in out


def test_entropy_markov_on_the_cap_hole(capsys):
    # 395 states in one class: the class bracket, no characteristic polynomial
    code, out, _ = run(capsys, "entropy", "--engine", "markov", "--map", "doubling",
                       "--hole", "30001/100003,30201/100003")
    assert code == 0 and "p=1, rho=1.99601365069933" in out


@pytest.mark.parametrize("argv", [
    ["--engine", "compare", "--map", "farey", "--param", "0.4", "--depth", "8"],
    ["--engine", "markov", "--map", "farey", "--param", "0.4", "--hole", "0,0"],
], ids=["compare", "markov-refused-closure"])
def test_a_bad_tol_is_refused_before_any_engine_runs(capsys, argv):
    code, out, err = run(capsys, "entropy", *argv, "--tol", "0")
    assert code == 2 and out == ""
    assert err == "error: tol must be positive and finite\n"
