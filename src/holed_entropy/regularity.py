"""Parameter sweeps over hole families and empirical regularity estimates.

A sweep evaluates one entropy engine over an exact rational grid of hole
parameters, serially and in grid order.  The regularity estimator samples
entropy differences around a base point once across a geometric ladder of
scales and fits a log-log exponent; its bound check tests boundedness of the
fitted constant on the same samples: a genuine exponent keeps the per-mesh
constants within a fixed factor across the ladder, while an overshot
exponent makes them grow geometrically.  No limit claims are made anywhere;
everything is reported per mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cylinders import entropy_estimate, refine
from .errors import HoledEntropyError, InvalidParameterError
from .kneading import entropy_left_hole
from .mapmodel import Hole, PiecewiseMap, build_doubling
from .markov import entropy_markov

# the doubling-map families share one map, built once (PiecewiseMap is frozen)
_DOUBLING = build_doubling()
_HALF = Fraction(1, 2)

# a genuine Hoelder exponent keeps the per-mesh constants within this factor
# of each other across the ladder
STABILITY_FACTOR = 4.0


# ---------------------------------------------------------------------------
# hole families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftHoleFamily:
    """s -> [s, 1] for the doubling map; admissible s in (1/2, 1)."""

    name: str = "left"

    def admissible(self, s: Fraction) -> bool:
        return _HALF < s < 1

    def hole(self, s: Fraction) -> Hole:
        return Hole([(s, 1)])

    def map(self) -> PiecewiseMap:
        return _DOUBLING


@dataclass(frozen=True)
class SlidingHoleFamily:
    """s -> [s, s + width] for the doubling map; admissible s in (0, 1 - width)."""

    width: Fraction
    name: str = "sliding"

    def __post_init__(self):
        w = Fraction(self.width)
        if not (0 < w < 1):
            raise InvalidParameterError("width must lie in (0, 1)")
        object.__setattr__(self, "width", w)

    def admissible(self, s: Fraction) -> bool:
        return 0 < s and s + self.width < 1

    def hole(self, s: Fraction) -> Hole:
        return Hole([(s, s + self.width)])

    def map(self) -> PiecewiseMap:
        return _DOUBLING


@dataclass(frozen=True)
class CustomFamily:
    """Arbitrary parameterized holes over a fixed map."""

    pmap: PiecewiseMap
    hole_fn: Callable[[Fraction], Hole]
    name: str = "custom"

    def admissible(self, s: Fraction) -> bool:
        return True

    def hole(self, s: Fraction) -> Hole:
        return self.hole_fn(s)

    def map(self) -> PiecewiseMap:
        return self.pmap


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

def entropy_at(family, s: Fraction, engine: str, depth: int = 20
               ) -> tuple[float, Optional[int], Optional[float]]:
    """(entropy, pole order if known, bound on the entropy's error if known)
    at one parameter; ``depth`` is the oracle engine's refinement level."""
    s = Fraction(s)
    if not family.admissible(s):
        raise InvalidParameterError(f"parameter {s} is outside the family range")
    if engine == "kneading":
        if not isinstance(family, LeftHoleFamily):
            raise InvalidParameterError("the kneading engine only covers left holes")
        res = entropy_left_hole(s)
        return res.entropy, res.p, res.entropy_bound
    if engine == "markov":
        res = entropy_markov(family.map(), family.hole(s))
        return res.entropy, res.report.pole_order_p, res.error_bound
    if engine == "oracle":
        tree = refine(family.map(), family.hole(s), depth)
        return entropy_estimate(tree, depth), None, None
    raise InvalidParameterError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one engine over one family.

    Grid points are exact rationals: start + k*(end - start)/(count - 1).
    ``extra_points`` are merged in (deduplicated, sorted).  ``depth`` is the
    oracle engine's refinement level.
    """

    family: object
    start: Fraction
    end: Fraction
    count: int
    engine: str = "kneading"
    depth: int = 20
    extra_points: tuple = ()

    def grid(self) -> list[Fraction]:
        """The grid points and ``extra_points``, deduplicated and sorted.

        Every point is written over one common denominator, so the dedupe
        and the sort run on integer numerators and each Fraction is built
        once, at the end.
        """
        start, end = Fraction(self.start), Fraction(self.end)
        if not start < end:
            raise InvalidParameterError("grid needs start < end")
        if self.count < 2:
            raise InvalidParameterError("grid needs count >= 2")
        extra = [Fraction(x) for x in self.extra_points]
        # start + k (end - start) / (count - 1) = (a + k step) / den
        unit = math.lcm(start.denominator, end.denominator,
                        *(x.denominator for x in extra))
        den = unit * (self.count - 1)
        a = start.numerator * (den // start.denominator)
        step = (end.numerator * (unit // end.denominator)
                - start.numerator * (unit // start.denominator))
        nums = {a + k * step for k in range(self.count)}
        nums.update(x.numerator * (den // x.denominator) for x in extra)
        return [Fraction(n, den) for n in sorted(nums)]


@dataclass(frozen=True)
class SweepRow:
    s: Fraction
    entropy: Optional[float]
    p: Optional[int]
    engine: str
    error_bound: Optional[float]
    status: str = "ok"


@dataclass
class SweepResult:
    rows: list[SweepRow]
    metadata: dict

    def entropies(self) -> list[float]:
        return [r.entropy for r in self.rows if r.entropy is not None]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the engine on every grid point, serially and in grid order;
    failures flag the row and the sweep continues.  The metadata carries no
    wall clock, so identical specs give identical results."""
    pts = spec.grid()
    for s in pts:
        if not spec.family.admissible(s):
            raise InvalidParameterError(f"grid point {s} is outside the family range")

    def work(s: Fraction) -> SweepRow:
        try:
            h, p, err = entropy_at(spec.family, s, spec.engine, spec.depth)
            return SweepRow(s, h, p, spec.engine, err)
        except HoledEntropyError as exc:
            return SweepRow(s, None, None, spec.engine, None,
                            f"error:{type(exc).__name__}")

    rows = [work(s) for s in pts]
    meta = {
        "family": getattr(spec.family, "name", "custom"),
        "engine": spec.engine,
        "count": len(rows),
        "start": str(pts[0]),
        "end": str(pts[-1]),
    }
    return SweepResult(rows, meta)


# ---------------------------------------------------------------------------
# regularity estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderBoundReport:
    """Outcome of the bounded-constant check at a candidate exponent."""

    passed: bool
    alpha: float
    constant: float
    mesh_sizes: tuple[float, ...]
    constant_per_mesh: tuple[float, ...]
    stability_ratio: Optional[float]
    locally_constant: bool
    detail: str


@dataclass(frozen=True)
class HolderEstimate:
    """Per-mesh regularity data around a base parameter.

    ``alpha_target`` is h(t) / (p * xi).  ``differences[k]`` is the largest
    |h(s) - h(t)| over the admissible s = t +- delta_k, and
    ``constant_per_mesh[k]`` is that difference over delta_k**alpha_target;
    ``constant`` is the max over the ladder.  ``fitted_exponent`` is the
    log-log regression slope over the nonzero differences (None when the
    entropy is constant across every sampled scale).
    """

    t: Fraction
    alpha_target: float
    fitted_exponent: Optional[float]
    fit_residual: Optional[float]
    constant: float
    mesh_sizes: tuple[float, ...]
    constant_per_mesh: tuple[float, ...]
    locally_constant: bool
    entropy_at_t: float
    differences: tuple[float, ...]

    def bound_check(self, exponent_offset: float = 0.0) -> HolderBoundReport:
        """Check |h(s) - h(t)| <= C |s - t|**alpha with one C across the
        sampled ladder, without evaluating the entropy again.

        alpha is h(t)/(p*xi) plus ``exponent_offset``.  Passes when every
        per-mesh constant is positive and the largest exceeds the smallest by
        at most ``STABILITY_FACTOR`` across the whole ladder; a constant
        entropy passes trivially with C = 0.  Failure is a report outcome,
        not an error.
        """
        if self.entropy_at_t <= 0:
            raise InvalidParameterError("the bound applies only where entropy is positive")
        alpha = self.alpha_target + exponent_offset
        mesh = self.mesh_sizes
        consts = tuple(dh / d ** alpha for d, dh in zip(mesh, self.differences))
        if all(c == 0 for c in consts):
            return HolderBoundReport(True, alpha, 0.0, mesh, consts, None, True,
                                     "entropy locally constant across all scales")
        if any(c == 0 for c in consts):
            return HolderBoundReport(False, alpha, max(consts), mesh, consts, None,
                                     False, "mixed zero and nonzero constants")
        ratio = max(consts) / min(consts)
        ok = ratio <= STABILITY_FACTOR
        detail = (f"constant varies by factor {ratio:.3g} across the ladder; "
                  f"{'within' if ok else 'exceeds'} the stability factor "
                  f"{STABILITY_FACTOR:g}")
        return HolderBoundReport(ok, alpha, max(consts), mesh, consts, ratio,
                                 False, detail)


def holder_estimate(family, t, p: int, xi: float, scales: Sequence,
                    engine: str = "kneading",
                    depth: int = 20) -> HolderEstimate:
    """Sample h(t +- delta) once across the scale ladder and report the target
    exponent h(t)/(p*xi), the fitted log-log exponent, and per-mesh constants.

    Needs p >= 1, 0 < xi < inf, and at least two positive, strictly
    decreasing scales; anything else is an ``InvalidParameterError`` before
    any entropy is evaluated.  Entropy constant across every scale is
    flagged, not an error: the exponent is undefined on a plateau.
    ``HolderEstimate.bound_check`` tests a bound on the same samples.
    """
    t = Fraction(t)
    if not p >= 1:
        raise InvalidParameterError("pole order must be >= 1")
    if not 0 < xi < math.inf:
        raise InvalidParameterError("xi must be positive and finite")
    sc = [Fraction(d) for d in scales]
    if len(sc) < 2:
        raise InvalidParameterError("need at least two scales")
    if any(b >= a for a, b in zip(sc, sc[1:])):
        raise InvalidParameterError("scales must be strictly decreasing")
    if sc[-1] <= 0:
        raise InvalidParameterError("scales must be positive")
    h_t, _, _ = entropy_at(family, t, engine, depth)
    diffs = []
    for delta in sc:
        best = 0.0
        for s in (t - delta, t + delta):
            if family.admissible(s):
                h_s, _, _ = entropy_at(family, s, engine, depth)
                best = max(best, abs(h_s - h_t))
        diffs.append(best)
    diffs = tuple(diffs)
    mesh = tuple(float(d) for d in sc)
    alpha = h_t / (p * xi) if h_t > 0 else 0.0
    if alpha == 0.0:
        return HolderEstimate(t, 0.0, None, None, 0.0, mesh,
                              tuple(0.0 for _ in diffs),
                              all(dh == 0 for dh in diffs), h_t, diffs)
    consts = tuple(dh / d ** alpha for d, dh in zip(mesh, diffs))
    xs = [math.log(d) for d, dh in zip(mesh, diffs) if dh > 0]
    ys = [math.log(dh) for dh in diffs if dh > 0]
    fitted = residual = None
    if len(xs) >= 2:
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        if sxx > 0:
            fitted = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
            residual = math.sqrt(sum((y - (my + fitted * (x - mx))) ** 2
                                     for x, y in zip(xs, ys)) / n)
    return HolderEstimate(t, alpha, fitted, residual, max(consts), mesh, consts,
                          all(dh == 0 for dh in diffs), h_t, diffs)


def verify_holder_bound(family, t, p: int, xi: float, scales: Sequence,
                        engine: str = "kneading",
                        depth: int = 20,
                        exponent_offset: float = 0.0) -> HolderBoundReport:
    """``holder_estimate(...).bound_check(exponent_offset)``:
    sample the ladder once and check one constant C across all scales."""
    est = holder_estimate(family, t, p, xi, scales, engine, depth)
    return est.bound_check(exponent_offset)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def emit_csv(result: SweepResult, path: str):
    """CSV with header s,s_exact,entropy,p,engine,error_bound,status.

    Floats carry 15 significant digits; the exact parameter rides along as a
    rational string.  An empty sweep is an error.
    """
    if not result.rows:
        raise InvalidParameterError("refusing to emit an empty sweep")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("s,s_exact,entropy,p,engine,error_bound,status\n")
        for r in result.rows:
            ent = "" if r.entropy is None else f"{r.entropy:.15g}"
            p = "" if r.p is None else str(r.p)
            err = "" if r.error_bound is None else f"{r.error_bound:.15g}"
            fh.write(f"{float(r.s):.15g},{r.s},{ent},{p},{r.engine},{err},{r.status}\n")


def emit_svg_plot(result: SweepResult, path: str):
    """Minimal self-contained SVG line plot (polyline plus labeled axes),
    titled with the sweep's engine."""
    if not result.rows:
        raise InvalidParameterError("refusing to plot an empty sweep")
    width, height = 800, 600
    ml, mr, mt, mb = 70, 20, 40, 50
    rows = [r for r in result.rows if r.entropy is not None]
    if not rows:
        raise InvalidParameterError("no successful rows to plot")
    xs = [float(r.s) for r in rows]
    ys = [r.entropy for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y1 = y0 + 1.0
    if x1 == x0:
        x1 = x0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    title = f"entropy sweep ({result.metadata.get('engine', '?')})"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>',
        f'<text x="{ml}" y="{height-mb+20}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x0:.6g}</text>',
        f'<text x="{width-mr}" y="{height-mb+20}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x1:.6g}</text>',
        f'<text x="{ml-8}" y="{height-mb}" font-family="sans-serif" '
        f'font-size="12" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{ml-8}" y="{mt+4}" font-family="sans-serif" '
        f'font-size="12" text-anchor="end">{y1:.6g}</text>',
        f'<text x="{width/2:.0f}" y="{height-10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">hole parameter s</text>',
        '<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" '
        f'points="{pts}"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
