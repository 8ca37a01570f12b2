"""Workload inputs, timed passes, span targets and output checks.

Three workloads, each stressing different modules of holed_entropy:

* ``oracle_refine`` -- cylinder refinement only (both the scaled-integer and
  the generic Moebius/Fraction path); never touches markov, kneading or
  polyexact.
* ``markov_sweep`` -- a sliding-hole sweep on the exact Markov engine, whose
  time is in the Markov closure, Berkowitz, Sturm isolation and sympy; never
  touches cylinders.
* ``tower_sweep`` -- a left-hole sweep on the tower engine plus the Hoelder
  ladder, which uses polyexact for sparse +-1 polynomials instead of dense
  characteristic polynomials.

Inputs are made from the seed by ``make_inputs`` and are plain JSON, so the
same seed gives byte-identical inputs.  The program only ever receives the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import traceback
from fractions import Fraction

from holed_entropy import cylinders, kneading, markov, polyexact, regularity
from holed_entropy.errors import InvalidParameterError
from holed_entropy.mapmodel import Hole, build_doubling, build_scaled_farey
from holed_entropy.scalar import Scalar

WORKLOADS = ("oracle_refine", "markov_sweep", "tower_sweep")

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)

# Smallest item of each workload, run by the CLI in a fresh interpreter.
SETUP_COMMANDS = {
    "oracle_refine": ["oracle", "--map", "doubling", "--hole", "3/4,1",
                      "--depth", "10"],
    "markov_sweep": ["spectrum", "--map", "doubling", "--hole", "3/4,5/6"],
    "tower_sweep": ["tower", "--a", "2/3"],
}

# Orbit-length bands for the seeded tower rows: one band below the
# 512-coefficient exact-certification cutoff of leading_root, one above it.
# Drawing a fixed number of rows per band keeps the work per seed steady.
TOWER_BANDS = ((256, 512), (768, 1024))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_refine":
        deep = 12 if smoke else 24
        items = [
            {"id": "left-3/4", "map": "doubling", "hole": ["3/4", "1"],
             "depth": deep, "path": "scaled", "check": "fibonacci"},
            {"id": "left-13/16", "map": "doubling", "hole": ["13/16", "1"],
             "depth": deep, "path": "scaled", "check": "ratio", "tol": 1e-5},
            {"id": "farey-4/5", "map": "farey", "param": "4/5", "hole": None,
             "depth": 8 if smoke else 14, "path": "generic",
             "check": "power_of_two"},
        ]
        # The items are the workload's definition; the seed fixes their order.
        rng.shuffle(items)
        return {"workload": workload, "items": items}
    if workload == "markov_sweep":
        count = 5 if smoke else 129
        start, end = Fraction(7, 10), Fraction(4, 5)
        step = (end - start) / (count - 1)
        # seeded rows at cell midpoints: same denominators as the grid, so
        # the same kind of Markov closure
        cells = rng.sample(range(count - 1), 1 if smoke else 8)
        extra = [str(start + (k + Fraction(1, 2)) * step) for k in sorted(cells)]
        return {"workload": workload, "family": "sliding", "width": "1/12",
                "start": str(start), "end": str(end), "count": count,
                "engine": "markov", "extra": extra, "dip_at": "3/4"}
    if workload == "tower_sweep":
        count = 5 if smoke else 257
        start, end = Fraction(11, 20), Fraction(19, 20)
        step = (end - start) / (count - 1)
        grid = {start + k * step for k in range(count)}
        per_band = 1 if smoke else 6
        extra: list[Fraction] = []
        for lo, hi in TOWER_BANDS:
            picked = 0
            while picked < per_band:
                q = rng.randint(500, 10_000)
                a = Fraction(q - rng.randint(1, 12), q)
                if a in grid or a in extra or not lo <= orbit_length(a) < hi:
                    continue
                extra.append(a)
                picked += 1
        return {"workload": workload, "family": "left", "start": str(start),
                "end": str(end), "count": count, "engine": "kneading",
                "extra": [str(a) for a in sorted(extra)],
                "holder": {"t": "3/4", "p": 1,
                           "scales": [6, 8] if smoke else [6, 16]}}
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def orbit_length(a: Fraction, cap: int = 4096) -> int:
    """Steps until the left-hole boundary orbit a_{k+1} = T(min(a, a_k)^-)
    of the doubling map repeats a value (capped).  Integer residues mod the
    denominator; used only to draw seeded rows of a given size."""
    p, q = a.numerator, a.denominator
    seen = set()
    x = p
    while x not in seen and len(seen) < cap:
        seen.add(x)
        y = 2 * min(p, x)
        x = y if y <= q else y - q
    return len(seen)


def expected_keys(workload: str, inputs: dict) -> list[str]:
    """Every item a pass must produce a result for."""
    if workload == "oracle_refine":
        return [item["id"] for item in inputs["items"]]
    keys = [str(s) for s in _grid(inputs)]
    if workload == "tower_sweep":
        keys += ["holder_estimate", "verify_holder_bound"]
    return keys


def _grid(inputs: dict) -> list[Fraction]:
    start, end = Fraction(inputs["start"]), Fraction(inputs["end"])
    step = (end - start) / (inputs["count"] - 1)
    pts = {start + k * step for k in range(inputs["count"])}
    pts.update(Fraction(x) for x in inputs["extra"])
    return sorted(pts)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Failed:
    """An item that raised; never equal to a result."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self):
        return f"Failed({self.message})"


def _guard(key: str, fn):
    try:
        return fn()
    except Exception as exc:  # an item boundary: record it and keep going
        print(f"item {key} raised:", file=sys.stderr)
        traceback.print_exc(limit=-3, file=sys.stderr)
        return Failed(f"{type(exc).__name__}: {exc}")


def _fraction_hole(lo: str, hi: str) -> Hole:
    return Hole([(Scalar.exact(Fraction(lo)), Scalar.exact(Fraction(hi)))])


def run_pass(workload: str, inputs: dict, tracer) -> dict:
    """One timed pass: item key -> result (or Failed)."""
    if workload == "oracle_refine":
        return _oracle_pass(inputs, tracer)
    return _sweep_pass(workload, inputs, tracer)


def _oracle_pass(inputs, tracer):
    out = {}
    for item in inputs["items"]:
        def call(item=item):
            if item["map"] == "doubling":
                pmap = build_doubling()
            else:
                pmap = build_scaled_farey(Fraction(item["param"]))
            hole = _fraction_hole(*item["hole"]) if item["hole"] else Hole.empty()
            with tracer.span("cylinders.refine", row=item["id"]) as rec:
                tree = cylinders.refine(pmap, hole, item["depth"])
            counts = [tree.count(n) for n in range(1, item["depth"] + 1)]
            if rec is not None:
                rec["counts"] = {"path": item["path"], "components": sum(counts)}
            return counts
        out[item["id"]] = _guard(item["id"], call)
    return out


def _sweep_pass(workload, inputs, tracer):
    if inputs["family"] == "sliding":
        family = regularity.SlidingHoleFamily(Fraction(inputs["width"]))
    else:
        family = regularity.LeftHoleFamily()
    spec = regularity.SweepSpec(
        family, Fraction(inputs["start"]), Fraction(inputs["end"]),
        inputs["count"], engine=inputs["engine"],
        extra_points=tuple(Fraction(x) for x in inputs["extra"]))

    def sweep():
        with tracer.span("regularity.run_sweep"):
            result = regularity.run_sweep(spec)
        return {str(r.s): (r.entropy, r.p, r.status) for r in result.rows}

    rows = _guard("run_sweep", sweep)
    if isinstance(rows, Failed):  # the whole sweep raised: every row failed
        out = {str(s): rows for s in _grid(inputs)}
    else:
        out = {str(s): rows.get(str(s), Failed("row missing")) for s in _grid(inputs)}
    if workload == "tower_sweep":
        h = inputs["holder"]
        t = Fraction(h["t"])
        scales = [Fraction(1, 2 ** k) for k in range(h["scales"][0], h["scales"][1] + 1)]

        def estimate():
            with tracer.span("regularity.holder_estimate", row=h["t"]):
                est = regularity.holder_estimate(family, t, h["p"], math.log(2), scales)
            return (est.entropy_at_t, est.alpha_target, est.fitted_exponent,
                    est.constant)

        def bound():
            with tracer.span("regularity.verify_holder_bound", row=h["t"]):
                rep = regularity.verify_holder_bound(family, t, h["p"], math.log(2), scales)
            return (rep.passed, rep.alpha, rep.constant)

        out["holder_estimate"] = _guard("holder_estimate", estimate)
        out["verify_holder_bound"] = _guard("verify_holder_bound", bound)
    return out


# ---------------------------------------------------------------------------
# span targets (traced passes only)
# ---------------------------------------------------------------------------

class Captured:
    """Program outputs kept from the first traced pass for the polyexact replay."""

    def __init__(self):
        self.matrices: list[tuple[str, object]] = []
        self.keep = True


def span_targets(captured: Captured) -> list[tuple]:
    def row_of_s(args):
        return str(Fraction(args[1]))

    def on_refine_markov(rec, args, ref):
        rec["counts"] = {"breakpoints": len(ref.breakpoints), "states": len(ref.states)}

    def on_matrix(rec, args, M):
        rec["counts"] = {"states": M.size}
        if captured.keep:
            captured.matrices.append((rec["row"], M))

    def on_spectral(rec, args, report):
        rec["counts"] = {"alg": report.algebraic_multiplicity}

    def on_determinant(rec, args, series):
        poly = series.polynomial
        rec["counts"] = {"coeffs": len(series.coefficients),
                         "terms": sum(1 for c in poly if c),
                         "degree": len(poly) - 1}

    def on_leading_root(rec, args, root):
        series = args[0]
        certified = getattr(root, "certified", None)
        if certified is None:
            # the rule leading_root applies at the seed commit: exact sign
            # certification only for exact polynomials of <= 512 coefficients
            certified = series.exact and len(series.polynomial) <= 512
        rec["counts"] = {"certified": bool(certified)}

    return [
        (regularity, "entropy_at", "regularity.entropy_at", row_of_s, None),
        (kneading, "build_orbit", "kneading.build_orbit", None, None),
        (kneading, "determinant", "kneading.determinant", None, on_determinant),
        (kneading, "leading_root", "kneading.leading_root", None, on_leading_root),
        (markov, "refine_markov", "markov.refine_markov", None, on_refine_markov),
        (markov, "transition_matrix", "markov.transition_matrix", None, on_matrix),
        (markov, "spectral_report", "markov.spectral_report", None, on_spectral),
    ]


def replay_polyexact(captured: Captured, tracer) -> None:
    """Call the polyexact functions again on the captured matrices, so the
    time inside transition_matrix and spectral_report can be split by
    function without tracing inside the program.  Runs after the traced
    passes, outside their timing."""
    for row, M in captured.matrices:
        with tracer.span("polyexact.berkowitz_char_poly", row=row):
            polyexact.berkowitz_char_poly([list(r) for r in M.entries])
        with tracer.span("polyexact.square_free_decomposition", row=row):
            decomp = polyexact.square_free_decomposition(list(M.char_poly))
        for factor, _mult in decomp:
            with tracer.span("polyexact.largest_real_root", row=row):
                try:
                    # the tolerance spectral_report passes at its default tol
                    polyexact.largest_real_root(factor, tol=1e-13)
                except InvalidParameterError:
                    pass  # factor without real roots, skipped the same way


# ---------------------------------------------------------------------------
# checks (outside every timed section)
# ---------------------------------------------------------------------------

def check(workload: str, inputs: dict, results: dict) -> dict[str, str]:
    """Key -> reason for every item whose output is wrong."""
    bad: dict[str, str] = {}
    for key, value in results.items():
        if isinstance(value, Failed):
            bad[key] = value.message
    if workload == "oracle_refine":
        _check_oracle(inputs, results, bad)
    else:
        _check_rows(inputs, results, bad)
        if workload == "markov_sweep":
            _check_dip(inputs, results, bad)
        else:
            _check_tower(inputs, results, bad)
    return bad


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _check_oracle(inputs, results, bad):
    for item in inputs["items"]:
        key = item["id"]
        counts = results[key]
        if key in bad:
            continue
        depth = item["depth"]
        if len(counts) != depth:
            bad[key] = "wrong number of levels"
        elif item["check"] == "fibonacci":
            wrong = [n for n in range(1, depth + 1)
                     if counts[n - 1] != _fibonacci(n + 2)]
            if wrong:
                bad[key] = f"level {wrong[0]} count is not F({wrong[0] + 2})"
        elif item["check"] == "power_of_two":
            if counts[-1] != 2 ** depth:
                bad[key] = f"level {depth} count {counts[-1]} != 2^{depth}"
        elif item["check"] == "ratio":
            a = Fraction(item["hole"][0])
            h = kneading.entropy_left_hole(Scalar.exact(a)).entropy
            est = math.log(counts[-1] / counts[-2])
            if not abs(est - h) < item["tol"]:
                bad[key] = f"log(c{depth}/c{depth - 1}) = {est} vs tower {h}"


def _check_rows(inputs, results, bad):
    for s in _grid(inputs):
        key = str(s)
        row = results[key]
        if key not in bad and (row[2] != "ok" or row[0] is None
                               or not math.isfinite(row[0])):
            bad[key] = f"row status {row[2]}"


def _check_dip(inputs, results, bad):
    s = Fraction(inputs["dip_at"])
    step = (Fraction(inputs["end"]) - Fraction(inputs["start"])) / (inputs["count"] - 1)
    key = str(s)
    if key in bad:
        return
    h, p, _ = results[key]
    neighbours = [results[str(s - step)], results[str(s + step)]]
    if p != 2:
        bad[key] = f"pole order {p} at {key}, expected 2"
    elif not all(isinstance(n, tuple) and n[0] is not None and h < n[0]
                 for n in neighbours):
        bad[key] = f"entropy at {key} does not dip below its grid neighbours"


def _sign_at(poly, x: float) -> int:
    """Exact sign of sum poly[k] x^k at a float (a dyadic rational), by
    integer Horner on the numerator scaled by den^degree."""
    m, d = x.as_integer_ratio()
    acc = 0
    scale = 1
    for c in reversed(poly):
        acc = acc * m + c * scale
        scale *= d
    # acc = d^degree * P(m/d), so its sign is the sign of P(x)
    return (acc > 0) - (acc < 0)


def _check_tower(inputs, results, bad):
    pts = _grid(inputs)
    prev = None
    for s in pts:
        key = str(s)
        if key in bad:
            prev = None
            continue
        h = results[key][0]
        if prev is not None and h < prev[1] - 1e-10:
            bad[key] = f"entropy decreases from {prev[0]} to {key}"
        prev = (key, h)
        if s == Fraction(3, 4) and not abs(h - LOG_GOLDEN) < 1e-12:
            bad[key] = f"entropy at 3/4 is {h}, not log golden"
        if key in bad:
            continue
        res = kneading.entropy_left_hole(Scalar.exact(s))
        lo, hi = res.root.bracket
        if res.entropy != h:
            bad[key] = "sweep row differs from entropy_left_hole"
        elif not (_sign_at(res.series.polynomial, lo) > 0
                  and _sign_at(res.series.polynomial, hi) < 0):
            bad[key] = f"bracket [{lo}, {hi}] fails the exact sign check"
    est = results["holder_estimate"]
    if "holder_estimate" not in bad and not abs(est[0] - LOG_GOLDEN) < 1e-12:
        bad["holder_estimate"] = f"h(3/4) = {est[0]}, not log golden"
    rep = results["verify_holder_bound"]
    if "verify_holder_bound" not in bad and rep[0] is not True:
        bad["verify_holder_bound"] = "Hoelder bound does not hold at the target exponent"


def check_setup(workload: str, stdout: str) -> bool:
    """Check the CLI's output for the workload's smallest item."""
    try:
        if workload == "oracle_refine":
            return stdout.strip().splitlines()[-1].startswith("level 10: count 144,")
        report = json.loads(stdout)
        if workload == "markov_sweep":
            return report["char_poly_coeffs"] == [0, 1, 2, -1, -2, 1] and report["p"] == 2
        return abs(report["entropy"] - LOG_GOLDEN) < 1e-12
    except (ValueError, KeyError, IndexError, TypeError):
        return False
