"""Piecewise monotone interval maps, holes, and the measure pseudometric.

A map is an ordered list of strictly monotone branches (affine or Moebius)
over disjoint open subintervals of a compact interval.  A hole is a
normalized finite union of closed intervals; orbits entering a hole stop
evolving.  Everything here is immutable after construction and safe to share
across threads.

Every endpoint, coefficient and weight is held as a plain ``Fraction``.
The constructors convert ints, Fractions and strings ("num/den", integers,
decimals such as "0.3" = 3/10) through one coercion, ``_exact``; anything
else, a float above all, is refused with :class:`InvalidParameterError`,
since an exact count needs exact ends.  The engines evaluate branches with
``apply_raw``, ``invert_raw``, ``derivative_raw`` and ``image_raw``.

Conventions pinned here and relied on by the engines:

* holes are closed, partition elements and cylinders are open;
* a survivor piece only counts if it has positive length;
* branch-domain boundaries are excluded when removing a hole (the partition
  elements are open).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import InvalidParameterError


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", an integer, or a decimal string as an exact rational."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"not a rational: {text!r}") from exc


def _exact(value) -> Fraction:
    """The one coercion of an exact input: an int or a Fraction, or a string
    that :func:`parse_rational` reads.  Anything else, a boolean or a float
    above all, is refused."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool):
        raise InvalidParameterError(f"boolean {value!r} is not an exact value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, numbers.Real):  # a Python or numpy float
        raise InvalidParameterError(
            f"float {value!r} is not an exact value: pass num/den or a "
            f"decimal string")
    raise InvalidParameterError(f"{value!r} is not an exact value")


def _int_pair(x: Fraction) -> tuple[int, int]:
    """x as the integer pair (num, den), den > 0, that the engines compute on."""
    return x.numerator, x.denominator


def _set_exact(obj, *names: str):
    for name in names:
        object.__setattr__(obj, name, _exact(getattr(obj, name)))


@dataclass(frozen=True)
class IntervalOpen:
    """The open interval (lo, hi), lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        _set_exact(self, "lo", "hi")
        if not self.lo < self.hi:
            raise InvalidParameterError(
                f"open interval needs lo < hi, got ({self.lo}, {self.hi})")

    def as_raw(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi


@dataclass(frozen=True)
class Affine:
    """x -> slope*x + offset, slope != 0."""

    slope: Fraction
    offset: Fraction

    def __post_init__(self):
        _set_exact(self, "slope", "offset")
        if self.slope == 0:
            raise InvalidParameterError("affine branch needs nonzero slope")


@dataclass(frozen=True)
class Moebius:
    """x -> (p*x + q) / (r*x + s) with p*s - q*r != 0."""

    p: Fraction
    q: Fraction
    r: Fraction
    s: Fraction

    def __post_init__(self):
        _set_exact(self, "p", "q", "r", "s")
        det = self.p * self.s - self.q * self.r
        if det == 0:
            raise InvalidParameterError("moebius branch is degenerate (ps - qr = 0)")


BranchKind = Union[Affine, Moebius]


@dataclass(frozen=True)
class Branch:
    """One monotone branch of the map with its domain.

    The branch function extends continuously to the closure of the domain;
    ``apply_raw``/``invert_raw``/``derivative_raw`` use that extension,
    exactly.  For a Moebius branch the pole must lie outside the domain
    closure.
    """

    domain: IntervalOpen
    kind: BranchKind

    def __post_init__(self):
        if isinstance(self.kind, Moebius):
            r, s = self.kind.r, self.kind.s
            if r != 0:
                pole = -s / r
                lo, hi = self.domain.as_raw()
                if lo <= pole <= hi:
                    raise InvalidParameterError(
                        f"moebius pole {pole} lies inside the branch domain closure")

    def apply_raw(self, x: Fraction) -> Fraction:
        k = self.kind
        if isinstance(k, Affine):
            return k.slope * x + k.offset
        return (k.p * x + k.q) / (k.r * x + k.s)

    def invert_raw(self, y: Fraction) -> Fraction:
        k = self.kind
        if isinstance(k, Affine):
            return (y - k.offset) / k.slope
        # inverse of (px+q)/(rx+s) is (sy-q)/(-ry+p)
        return (k.s * y - k.q) / (-k.r * y + k.p)

    def derivative_raw(self, x: Fraction) -> Fraction:
        k = self.kind
        if isinstance(k, Affine):
            return k.slope
        det = k.p * k.s - k.q * k.r
        den = k.r * x + k.s
        return det / (den * den)

    @property
    def orientation(self) -> int:
        """+1 for increasing, -1 for decreasing."""
        k = self.kind
        if isinstance(k, Affine):
            return 1 if k.slope > 0 else -1
        det = k.p * k.s - k.q * k.r
        return 1 if det > 0 else -1

    def integer_matrix(self) -> tuple[int, int, int, int]:
        """Integers (A, B, C, D) with x -> (A x + B) / (C x + D) the branch
        and C x + D > 0 on the domain closure.

        The coefficients are scaled by the lcm of their denominators.  The
        pole lies outside the domain closure, so C x + D has one sign on
        all of it, and one sign flip makes that sign positive.  Computed on
        the first call and kept on the instance.
        """
        return self._integer_matrix

    @cached_property
    def _integer_matrix(self) -> tuple[int, int, int, int]:
        k = self.kind
        m = (k.slope, k.offset, 0, 1) if isinstance(k, Affine) else (k.p, k.q, k.r, k.s)
        scale = math.lcm(*(x.denominator for x in m))
        A, B, C, D = (int(x * scale) for x in m)
        if C * self.domain.lo + D < 0:
            A, B, C, D = -A, -B, -C, -D
        return A, B, C, D

    def image_raw(self) -> tuple[Fraction, Fraction]:
        """Image of the domain closure, as a sorted (lo, hi) pair."""
        lo, hi = self.domain.as_raw()
        a, b = self.apply_raw(lo), self.apply_raw(hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PiecewiseMap:
    """Ordered monotone branches over disjoint open subintervals of I."""

    codomain: IntervalOpen
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise InvalidParameterError("map needs at least one branch")
        object.__setattr__(self, "branches", tuple(self.branches))
        ilo, ihi = self.codomain.as_raw()
        prev_hi = None
        for b in self.branches:
            lo, hi = b.domain.as_raw()
            if lo < ilo or hi > ihi:
                raise InvalidParameterError("branch domain exceeds the codomain")
            if prev_hi is not None and lo < prev_hi:
                raise InvalidParameterError("branch domains overlap or are unordered")
            prev_hi = hi
            w1, w2 = b.image_raw()
            if w1 < ilo or w2 > ihi:
                raise InvalidParameterError(
                    f"branch image ({w1}, {w2}) escapes the codomain closure")

    def branch_domains_raw(self) -> list[tuple[Fraction, Fraction]]:
        return [b.domain.as_raw() for b in self.branches]


class Hole:
    """Normalized finite union of closed intervals.

    Overlapping or touching pieces are merged on construction; degenerate
    pieces [a, a] are allowed and carry zero measure.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple]):
        norm: list[tuple[Fraction, Fraction]] = []
        for lo, hi in pieces:
            lo, hi = _exact(lo), _exact(hi)
            if lo > hi:
                raise InvalidParameterError(f"hole piece has lo > hi: {lo}, {hi}")
            norm.append((lo, hi))
        norm.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in norm:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.pieces: tuple[tuple[Fraction, Fraction], ...] = tuple(
            (lo, hi) for lo, hi in merged)

    @staticmethod
    def empty() -> "Hole":
        return Hole(())

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.pieces), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Hole) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        inner = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.pieces)
        return f"Hole({inner})"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

# every branch is built eagerly, so this bounds the map a name can ask for;
# the Markov engine refuses far smaller d at once, since each branch domain
# outside the hole is an initial state and it caps states at 400
D_ADIC_MAX = 10_000


def build_d_adic(d: int) -> PiecewiseMap:
    """The map x -> d*x mod 1 on (0,1), as d affine increasing branches.

    ``d`` must lie in ``[2, D_ADIC_MAX]``; the bound is checked before any
    branch is built.
    """
    if not isinstance(d, int) or d < 2:
        raise InvalidParameterError(f"d-adic map needs an integer d >= 2, got {d!r}")
    if d > D_ADIC_MAX:
        raise InvalidParameterError(
            f"d-adic map needs d <= {D_ADIC_MAX}, got {d}")
    I = IntervalOpen(0, 1)
    branches = []
    for k in range(d):
        dom = IntervalOpen(Fraction(k, d), Fraction(k + 1, d))
        branches.append(Branch(dom, Affine(d, -k)))
    return PiecewiseMap(I, tuple(branches))


def build_doubling() -> PiecewiseMap:
    return build_d_adic(2)


def build_scaled_farey(a) -> PiecewiseMap:
    """Two Moebius branches: a*x/(1-x) on (0,1/2) and a*(1-x)/x on (1/2,1)."""
    a = _exact(a)
    if not 0 < a <= 1:
        raise InvalidParameterError(f"scaled Farey parameter must lie in (0, 1], got {a}")
    half = Fraction(1, 2)
    left = Branch(IntervalOpen(0, half), Moebius(a, 0, -1, 1))
    right = Branch(IntervalOpen(half, 1), Moebius(-a, a, 1, 0))
    return PiecewiseMap(IntervalOpen(0, 1), (left, right))


# ---------------------------------------------------------------------------
# hole operations
# ---------------------------------------------------------------------------

def hole_dist(h1: Hole, h2: Hole) -> Fraction:
    """Lebesgue measure of the symmetric difference of two holes.

    A pseudometric: symmetric, triangle inequality, zero on equal holes, but
    it can vanish on distinct holes (degenerate pieces are invisible).
    """
    inter = Fraction(0)
    for lo1, hi1 in h1.pieces:
        for lo2, hi2 in h2.pieces:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                inter += hi - lo
    return h1.measure() + h2.measure() - 2 * inter


def subtract_pieces(lo: Fraction, hi: Fraction,
                    pieces: Sequence[tuple[Fraction, Fraction]]
                    ) -> list[tuple[Fraction, Fraction]]:
    """Open components of (lo, hi) minus closed pieces, keeping positive length."""
    out = []
    cur = lo
    for plo, phi in pieces:
        if phi <= cur:
            continue
        if plo >= hi:
            break
        if plo > cur:
            out.append((cur, min(plo, hi)))
        cur = max(cur, phi)
        if cur >= hi:
            break
    if cur < hi:
        out.append((cur, hi))
    return [(a, b) for a, b in out if b > a]


def restrict_partition(pmap: PiecewiseMap, hole: Hole) -> list[IntervalOpen]:
    """Level-1 survivor pieces: branch domains minus the hole, open components
    of positive length, listed left to right."""
    out = []
    for b in pmap.branches:
        lo, hi = b.domain.as_raw()
        for a, c in subtract_pieces(lo, hi, hole.pieces):
            out.append(IntervalOpen(a, c))
    return out


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _value_from_json(v) -> Fraction:
    """A config number: a string parses exactly, and so does a JSON number,
    as the decimal it spells (0.5 is 1/2); NaN and infinity are refused."""
    return _exact(repr(v) if isinstance(v, float) else v)


def _pair(v, what: str) -> tuple[Fraction, Fraction]:
    """A config [lo, hi] pair as two exact values."""
    if not isinstance(v, list) or len(v) != 2:
        raise InvalidParameterError(f"{what} must be a [lo, hi] pair, got {v!r}")
    return _value_from_json(v[0]), _value_from_json(v[1])


def map_to_config(pmap: PiecewiseMap, hole: Hole | None = None) -> dict:
    """Serializable description of a map (and optional hole).

    Values render as rational strings, so a round trip through JSON
    reproduces the map field by field.
    """
    cfg = {
        "codomain": [str(v) for v in pmap.codomain.as_raw()],
        "branches": [],
    }
    for b in pmap.branches:
        k = b.kind
        if isinstance(k, Affine):
            kind, coeffs = "affine", [k.slope, k.offset]
        else:
            kind, coeffs = "moebius", [k.p, k.q, k.r, k.s]
        cfg["branches"].append({
            "domain": [str(v) for v in b.domain.as_raw()],
            "kind": kind,
            "coeffs": [str(c) for c in coeffs],
        })
    if hole is not None:
        cfg["hole"] = [[str(lo), str(hi)] for lo, hi in hole.pieces]
    return cfg


def map_from_config(cfg: dict) -> tuple[PiecewiseMap, Hole | None]:
    """Parse the configuration emitted by :func:`map_to_config`.

    Every value is exact: strings parse as rationals (decimal strings too)
    and JSON numbers as the decimal they spell.  An ``"epsilon"`` key, which
    used to switch the config to float mode, is refused.  Overlapping branch
    domains are rejected, and so is a missing key or a malformed pair, with
    :class:`InvalidParameterError`.
    """
    if not (isinstance(cfg, dict) and "codomain" in cfg
            and isinstance(cfg.get("branches"), list)):
        raise InvalidParameterError("config needs 'codomain' and a 'branches' list")
    if "epsilon" in cfg:
        raise InvalidParameterError(
            "config key 'epsilon' is not supported: every value is exact, "
            "so give num/den or decimal values and drop the key")
    codomain = IntervalOpen(*_pair(cfg["codomain"], "codomain"))
    branches = []
    for bc in cfg["branches"]:
        if not (isinstance(bc, dict) and {"domain", "kind", "coeffs"} <= bc.keys()
                and isinstance(bc["coeffs"], list)):
            raise InvalidParameterError(
                f"each branch needs 'domain', 'kind' and a 'coeffs' list, got {bc!r}")
        dom = IntervalOpen(*_pair(bc["domain"], "branch domain"))
        coeffs = [_value_from_json(c) for c in bc["coeffs"]]
        if bc["kind"] == "affine":
            if len(coeffs) != 2:
                raise InvalidParameterError("affine branch needs [slope, offset]")
            kind = Affine(*coeffs)
        elif bc["kind"] == "moebius":
            if len(coeffs) != 4:
                raise InvalidParameterError("moebius branch needs [p, q, r, s]")
            kind = Moebius(*coeffs)
        else:
            raise InvalidParameterError(f"unknown branch kind {bc['kind']!r}")
        branches.append(Branch(dom, kind))
    pmap = PiecewiseMap(codomain, tuple(branches))
    hole = None
    if "hole" in cfg:
        if not isinstance(cfg["hole"], list):
            raise InvalidParameterError("config 'hole' must be a list of [lo, hi] pairs")
        hole = Hole([_pair(piece, "hole piece") for piece in cfg["hole"]])
        ilo, ihi = pmap.codomain.as_raw()
        for plo, phi in hole.pieces:
            if plo < ilo or phi > ihi:
                raise InvalidParameterError("hole piece escapes the codomain closure")
    return pmap, hole


def load_map_config(path: str) -> tuple[PiecewiseMap, Hole | None]:
    """Read a JSON map config; a file that cannot be read or is not JSON
    raises :class:`InvalidParameterError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"cannot read map config {path!r}: {exc}") from exc
    return map_from_config(cfg)
