"""Exact refinement and counting of surviving cylinder sets.

Cylinders are refined backwards: each level-(k+1) component is the pullback
of a level-k component through one branch inverse, intersected with the
branch domain, minus the hole.  Every component therefore has explicit exact
endpoints, and forward image lengths come from endpoint images of the
monotone composition.

A level is sorted and disjoint, so the level-n components that meet one
window (a piece of a branch domain outside the hole, pushed forward through
its branch) form a run ``s:e``, and the window pulls the whole run back,
cutting only its first and its last component to the window.  A level is
stored as its runs alone; :func:`refine` finds them without writing
endpoints, by counting (see :class:`_RunSearch`).  As in kneading theory, a
count of monotone pieces below a point is fixed by the point's forward
orbit: the level-n components whose ``lo`` (or ``hi``) lies below ``y``
are those of the windows left of ``y`` plus, in the window holding ``y``,
the pullbacks of the level-(n-1) components below the image of ``y``.
A count therefore follows the orbit down the stored runs to level 1, where
each window is one component.

Endpoints are read-only data: :meth:`RefinementTree.component_intervals`
and :meth:`RefinementTree.cylinders` replay the stored runs from level 1 on
Python lists of integer ``(num, den)`` endpoints with ``den > 0``, for any
map.  Branch inverses are 2x2 integer matrices, so a step does no Fraction
arithmetic (~0.5-0.8 us per component, affine or Moebius); values become
Fraction only when the level is returned.  Those reads, and the itineraries,
build per-component data, so they refuse a level past ``COMPONENT_CAP``
components; counts are not capped.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .errors import (EmptyPartitionError, InvalidParameterError,
                     ResourceLimitError)
from .mapmodel import (Affine, Branch, Hole, IntervalOpen, PiecewiseMap,
                       _exact, _int_pair, d_adic_degree, subtract_pieces)

# the most components per level that a read building per-component data
# (endpoints or itineraries) accepts
COMPONENT_CAP = 10_000_000


def _log_ratio(num) -> float:
    """log(num) for a possibly huge exact value."""
    den = 1
    if isinstance(num, Fraction):
        num, den = num.numerator, num.denominator
    return math.log(num) - math.log(den)


@dataclass(frozen=True)
class Cylinder:
    """All survivor components sharing one itinerary at one level."""

    itinerary: tuple[int, ...]
    components: tuple[IntervalOpen, ...]

    @property
    def hull(self) -> IntervalOpen:
        return IntervalOpen(self.components[0].lo, self.components[-1].hi)


class _Level:
    """One level as its runs.

    ``runs`` holds one ``(s, e)`` per window of :class:`_PairKernel`, left
    to right: the level's components ``starts[k]:starts[k+1]`` are the
    pullbacks of components ``s:e`` of the level before through window
    k's branch, in reverse order when the branch reverses orientation, the
    first and the last cut to the window (``s == e`` when window k pulls
    nothing back).  Level 1 has ``(-1, 0)`` per window: one component, the
    window, and no parent.  ``starts[-1]`` is the level's count.
    """

    __slots__ = ("runs", "starts")

    def __init__(self, runs: list):
        self.runs = runs
        self.starts = starts = [0]
        for s, e in runs:
            starts.append(starts[-1] + e - s)

    def links(self, kernel: _PairKernel) -> tuple[list[int], list[int]]:
        """(branch, parent) columns as Python ints, expanded from the runs
        of ``kernel``'s windows."""
        branch, parent = [], []
        for (b, *_), (s, e) in zip(kernel.windows, self.runs):
            branch += [b] * (e - s)
            parent += range(s, e) if kernel.signs[b] > 0 else range(e - 1, s - 1, -1)
        return branch, parent


class RefinementTree:
    """Survivor components per level, with per-level cardinalities.

    ``counts`` stops at the first extinct level; deeper counts are zero by
    convention (``count`` implements that).  The tree holds each level's
    runs only: counts and itineraries are read from them at any level, and
    endpoints (``component_intervals`` and ``cylinders``) are replayed from
    level 1 on every read.  Counts are uncapped; the reads that build
    per-component data refuse a level past ``COMPONENT_CAP`` components.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole, kernel: _PairKernel,
                 levels: list[_Level], extinct: bool):
        self.map = pmap
        self.hole = hole
        self._kernel = kernel
        self._levels = levels
        self._extinct = extinct
        self.counts = [lv.starts[-1] for lv in levels]

    @property
    def depth(self) -> int:
        return len(self._levels)

    def _stored_level(self, n: int) -> int:
        """The stored level that answers for level n.

        Levels past the depth of an extinct tree are as empty as its last
        level; past the depth of any other tree they are unknown.
        """
        if n < 1:
            raise InvalidParameterError("level must be >= 1")
        if n <= self.depth:
            return n
        if self._extinct:
            return self.depth
        raise InvalidParameterError(f"tree was only refined to depth {self.depth}")

    def count(self, n: int) -> int:
        return self.counts[self._stored_level(n) - 1]

    def _capped_level(self, n: int) -> int:
        """:meth:`_stored_level`, refused when a level up to it holds more
        than ``COMPONENT_CAP`` components (a read builds them all)."""
        n = self._stored_level(n)
        for level, count in enumerate(self.counts[:n], 1):
            if count > COMPONENT_CAP:
                raise ResourceLimitError(
                    f"component cap {COMPONENT_CAP} exceeded at level {level}")
        return n

    def component_intervals(self, n: int) -> list[tuple]:
        """Raw (lo, hi) pairs of the level-n components, left to right,
        replayed from level 1 through the stored runs on pair lists.  The
        replay builds tuples by the million and frees no cycle, so cyclic
        GC, which would only rescan them, is paused for it."""
        n = self._capped_level(n)
        enabled = gc.isenabled()
        gc.disable()
        try:
            lo, hi = self._kernel.ends
            for lv in self._levels[1:n]:
                lo, hi = self._kernel.pull(lv, lo, hi)
            return [(Fraction(*a), Fraction(*b)) for a, b in zip(lo, hi)]
        finally:
            if enabled:
                gc.enable()

    def itineraries(self, n: int) -> list[tuple[int, ...]]:
        n = self._capped_level(n)
        idx = range(self.counts[n - 1])
        columns = []
        for lv in reversed(self._levels[:n]):
            branch, parent = lv.links(self._kernel)
            columns.append([branch[i] for i in idx])
            idx = [parent[i] for i in idx]
        return list(zip(*columns))

    def cylinders(self, n: int) -> list[Cylinder]:
        """Components grouped by itinerary, groups ordered by first appearance."""
        groups: dict[tuple, list[IntervalOpen]] = {}
        for (lo, hi), word in zip(self.component_intervals(n), self.itineraries(n)):
            groups.setdefault(word, []).append(IntervalOpen(lo, hi))
        return [Cylinder(w, tuple(cs)) for w, cs in groups.items()]


# ---------------------------------------------------------------------------
# run search and replay kernel
# ---------------------------------------------------------------------------

# Kinds of count: bit 1 picks the column (0 lo, 1 hi), bit 0 counts the
# endpoints equal to the point too.  A decreasing branch maps lo < y to
# hi > T(y), so it flips both bits.
_LO_BELOW, _LO_UPTO, _HI_BELOW, _HI_UPTO = range(4)


def _inverse_matrix(branch: Branch) -> tuple[int, int, int, int]:
    """Integers (A, B, C, D) with branch^-1(y) = (A y + B) / (C y + D) and
    C y + D > 0 on the branch image closure.

    This is the adjugate of :meth:`Branch.integer_matrix` (a, b, c, d)
    times the sign of its determinant: at y = branch(x) the adjugate's
    denominator -c y + a is (a d - b c) / (c x + d), and c x + d > 0.
    """
    a, b, c, d = branch.integer_matrix()
    s = 1 if a * d > b * c else -1
    return s * d, -s * b, -s * c, s * a


class _PairKernel:
    """The windows, and the endpoint reads' replay on Python lists of
    integer (num, den) endpoint pairs, den > 0; any map.

    A branch inverse is the integer matrix of :func:`_inverse_matrix`, so a
    step is integer multiplications and cross-multiplied comparisons only.
    Pairs are not reduced: a gcd per endpoint costs more than the few extra
    bits it saves.  A run is pulled back by one list comprehension per
    column, ~0.5-0.8 us per component (Moebius or affine branches).
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        self.mats = [_inverse_matrix(b) for b in pmap.branches]
        self.forward = [b.integer_matrix() for b in pmap.branches]
        self.signs = [b.orientation for b in pmap.branches]
        # every branch domain minus the hole, left to right (the pieces of
        # the level-1 survivor set), each window as (branch, lo, hi, image
        # lo, image hi) with (num, den) pairs
        self.windows = []
        for b, (br, (dlo, dhi)) in enumerate(zip(pmap.branches, pmap.branch_domains_raw())):
            for lo, hi in subtract_pieces(dlo, dhi, hole.pieces):
                ylo, yhi = sorted((br.apply_raw(lo), br.apply_raw(hi)))
                self.windows.append((b, *map(_int_pair, (lo, hi, ylo, yhi))))
        # the (lo, hi) columns of level 1
        self.ends = [w[1] for w in self.windows], [w[2] for w in self.windows]

    def pull(self, level: _Level, lo: list, hi: list) -> tuple[list, list]:
        """Level ``level``'s (lo, hi) columns from the level before's."""
        nlo, nhi = [], []
        for (b, wlo, whi, _, _), (s, e) in zip(self.windows, level.runs):
            if s == e:
                continue
            A, B, C, D = self.mats[b]
            plo = [(A * u + B * v, C * u + D * v) for u, v in lo[s:e]]
            phi = [(A * u + B * v, C * u + D * v) for u, v in hi[s:e]]
            if self.signs[b] < 0:
                plo, phi = phi[::-1], plo[::-1]
            (u, v), (p, q) = plo[0], wlo
            if u * q < p * v:
                plo[0] = wlo
            (u, v), (p, q) = phi[-1], whi
            if u * q > p * v:
                phi[-1] = whi
            nlo += plo
            nhi += phi
        return nlo, nhi


class _RunSearch:
    """The runs of each next level, from the forward orbits of the window
    ends (see :func:`refine`).

    Window k's run ``s:e`` at level n+1 holds the level-n components that
    meet the window image (ylo, yhi): ``s`` counts those with ``hi <= ylo``
    and ``e`` those with ``lo < yhi``.  A count of kind ``kind`` (column,
    and whether endpoints equal to the point count) at level n of a point
    y splits the windows into three: those right of y hold no counted
    component, those left of y only counted ones, and the one window
    holding y, if any, counts the level-(n-1) components of its run below
    the image of y.  The window ends are compared directly: at a window
    end the window is decided by the kind, and of two windows sharing an
    end at most one needs the orbit.  The count is then affine in the
    count one level down, with slope +1 (``starts[k] - s + c``) or, on a
    decreasing branch, -1 (``starts[k] + e - c``, with the kind flipped).
    So a count follows one orbit down the stored levels, one forward
    :meth:`Branch.integer_matrix` step per level, until the orbit leaves
    the windows or reaches level 1, where window k is one component: the
    count is ``starts[k]`` plus that component when its ``lo`` is counted.

    The orbit of each queried (point, kind) is kept as a chain of
    ``(k, follow, point, kind)`` entries, one per level below the query,
    extended as the levels deepen; ``follow`` says whether window k holds
    the point.  Each distinct (point, kind) is located once.  No level's
    endpoints are written.
    """

    def __init__(self, kernel: _PairKernel, levels: list[_Level]):
        self.kernel, self.levels = kernel, levels
        self.increasing = [kernel.signs[w[0]] > 0 for w in kernel.windows]
        self.queries = [((ylo, _HI_UPTO), (yhi, _LO_BELOW))
                        for _, _, _, ylo, yhi in kernel.windows]
        keys = dict.fromkeys(chain.from_iterable(self.queries))
        self.chains = {key: [self._locate(*key)] for key in keys}

    def _locate(self, y, kind) -> tuple:
        """The chain entry of point ``y`` and ``kind``: the first window
        k that holds a component not counted, and whether it holds ``y``."""
        p, q = y
        for k, (_, (u, v), (r, t), _, _) in enumerate(self.kernel.windows):
            d = r * q - p * t   # sign of whi - y
            if d > 0 or (d == 0 and kind == _HI_BELOW):
                d = u * q - p * v   # sign of wlo - y
                return k, d < 0 or (d == 0 and kind == _LO_UPTO), y, kind
        return len(self.kernel.windows), False, y, kind

    def _extend(self, chain: list):
        k, _, (p, q), kind = chain[-1]
        A, B, C, D = self.kernel.forward[self.kernel.windows[k][0]]
        p, q = A * p + B * q, C * p + D * q
        g = math.gcd(p, q)
        chain.append(self._locate((p // g, q // g), kind if self.increasing[k] else kind ^ 3))

    def next_level(self):
        """Append the next level."""
        levels = self.levels
        depth = len(levels) - 1   # the levels above level 1
        counts = {}   # per queried (point, kind), the components below it
        for key, chain in self.chains.items():
            while len(chain) <= depth and chain[-1][1]:
                self._extend(chain)
            total, slope = 0, 1
            for j, (k, follow, _, kind) in enumerate(chain):
                lv = levels[-1 - j]
                start = lv.starts[k]
                if not follow:
                    break
                if j == depth:
                    # window k is one component and holds y: its lo counts, its hi not
                    start += not kind & 2
                    break
                s, e = lv.runs[k]
                if self.increasing[k]:
                    total += slope * (start - s)
                else:
                    total += slope * (start + e)
                    slope = -slope
            counts[key] = total + slope * start
        levels.append(_Level([(counts[s], counts[e]) for s, e in self.queries]))


def refine(pmap: PiecewiseMap, hole: Hole, n_max: int) -> RefinementTree:
    """Survivor components for levels 1..n_max.

    Stops early (with the zero-count convention) once a level dies out
    entirely.  Each level is found as its runs only (:class:`_RunSearch`):
    two counts per window, each following one window-image end's forward
    orbit down the stored runs to level 1.  No endpoints are written and no
    count is capped; the tree keeps the runs, a few per level, and replays
    endpoints when they are read.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    kernel = _PairKernel(pmap, hole)
    levels = [_Level([(-1, 0)] * len(kernel.windows))]
    search = _RunSearch(kernel, levels)
    while len(levels) < n_max and levels[-1].starts[-1]:
        search.next_level()
    return RefinementTree(pmap, hole, kernel, levels, levels[-1].starts[-1] == 0)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def entropy_estimate(tree: RefinementTree, n: int) -> float:
    """(1/n) log+ of the level-n survivor count; zero once everything escapes."""
    count = tree.count(n)
    if count == 0:
        return 0.0
    return max(0.0, math.log(count) / n)


@dataclass(frozen=True)
class LocallyConstantWeight:
    """One nonnegative exact weight per branch; products accumulate along
    itineraries."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_exact(v) for v in self.values))
        for v in self.values:
            if v < 0:
                raise InvalidParameterError("weights must be nonnegative")

    @staticmethod
    def constant(c, nbranches: int) -> "LocallyConstantWeight":
        return LocallyConstantWeight(tuple(c for _ in range(nbranches)))

    @staticmethod
    def ones(nbranches: int) -> "LocallyConstantWeight":
        return LocallyConstantWeight.constant(1, nbranches)


def pressure_estimate(pmap: PiecewiseMap, weight: LocallyConstantWeight,
                      hole: Hole, n: int) -> float:
    """(1/n) log of the weighted survivor sum at level n; -inf when it is zero.

    The weight is locally constant, so the supremum over a cylinder is the
    plain product of the branch weights along its itinerary; the sum counts
    the level-n components per itinerary and reads no endpoints.
    """
    if n < 1:
        raise InvalidParameterError("level must be >= 1")
    if len(weight.values) != len(pmap.branches):
        raise InvalidParameterError("weight needs one value per branch")
    vals = weight.values
    tree = refine(pmap, hole, n)
    total = Fraction(0)
    for word, components in Counter(tree.itineraries(n)).items():
        total += components * math.prod(vals[w] for w in word)
    if total == 0:
        return float("-inf")
    return _log_ratio(total) / n


# ---------------------------------------------------------------------------
# expansion and Lasota-Yorke diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Level-n growth diagnostics of the unrestricted map.

    ``theta_n`` is the weight growth rate (zero or -inf for indicator
    weights), ``lambda_n`` the maximal-expansion rate, ``xi_n`` the expansion
    rate normalized by image measure, and ``a_n``/``A_n`` the variation and
    integral coefficients of the bounded-variation inequality at level n.
    """

    n: int
    theta_n: float
    lambda_n: float
    xi_n: float
    a_n: float
    A_n: float


def _is_full_branch_affine(pmap: PiecewiseMap) -> bool:
    ilo, ihi = pmap.codomain.as_raw()
    for b in pmap.branches:
        if not isinstance(b.kind, Affine):
            return False
        w1, w2 = b.image_raw()
        if w1 != ilo or w2 != ihi:
            return False
    return True


def _cylinder_interval(pmap: PiecewiseMap, word: Sequence[int],
                       d: Optional[int] = None):
    """Endpoints of the unrestricted cylinder with the given itinerary; ``d``
    is the map's :func:`~.mapmodel.d_adic_degree`, which takes a closed form."""
    n = len(word)
    if d is not None:
        v = 0
        for w in word:
            v = v * d + w
        den = d ** n
        return Fraction(v, den), Fraction(v + 1, den)
    doms = pmap.branch_domains_raw()
    imgs = [b.image_raw() for b in pmap.branches]
    lo, hi = doms[word[-1]]
    for k in range(n - 2, -1, -1):
        b = word[k]
        ylo, yhi = max(lo, imgs[b][0]), min(hi, imgs[b][1])
        a = pmap.branches[b].invert_raw(ylo)
        c = pmap.branches[b].invert_raw(yhi)
        lo, hi = (a, c) if a <= c else (c, a)
    return lo, hi


def _sup_deriv_and_image(pmap: PiecewiseMap, word, lo, hi):
    """Upper bound for sup |D(T^n)| on the cylinder (exact for affine words)
    and the exact forward image length."""
    sup = 1
    for b in word:
        br = pmap.branches[b]
        d1, d2 = abs(br.derivative_raw(lo)), abs(br.derivative_raw(hi))
        sup *= max(d1, d2)
        a, c = br.apply_raw(lo), br.apply_raw(hi)
        lo, hi = (a, c) if a <= c else (c, a)
    return sup, hi - lo


def expansion_diagnostics(pmap: PiecewiseMap, n: int, hole: Hole | None = None,
                          weight: LocallyConstantWeight | None = None
                          ) -> ExpansionDiagnostics:
    """Compute the level-n expansion and Lasota-Yorke diagnostics.

    A full-branch affine map with an empty hole takes a closed form (the
    unrestricted level-n partition is never enumerated).  Every other case
    builds one table word -> (cylinder interval, sup |D T^n|, image length)
    and walks the survivor cylinders of :meth:`RefinementTree.cylinders`:
    the weight is multiplied by the indicator of the survivor set and the
    variation term counts the component ends inside each cylinder (none
    without a hole, where the survivors are the unrestricted cylinders
    themselves).
    """
    if n < 1:
        raise InvalidParameterError("level must be >= 1")
    if hole is None:
        hole = Hole.empty()
    if weight is None:
        weight = LocallyConstantWeight.ones(len(pmap.branches))
    if len(weight.values) != len(pmap.branches):
        raise InvalidParameterError("weight needs one value per branch")
    wvals = weight.values
    ilo, ihi = pmap.codomain.as_raw()
    m_I = ihi - ilo

    fast = _is_full_branch_affine(pmap)
    if fast:
        slopes = [abs(b.kind.slope) for b in pmap.branches]
        lambda_n = _log_ratio(max(slopes))
        xi_n = lambda_n - _log_ratio(m_I) / n
        if hole.is_empty:
            # all itineraries exist; extremes come from repeating one branch
            max_w = max(wvals)
            theta_n = float("-inf") if max_w == 0 else _log_ratio(max_w)
            best_ws = max(w * s for w, s in zip(wvals, slopes)) ** n
            try:
                a_n = 3.0 * float(max_w) ** n
                A_n = float(best_ws) * float(2 / Fraction(m_I) + 1)
            except OverflowError:
                a_n = A_n = math.inf
            if math.isinf(a_n) or math.isinf(A_n):
                raise InvalidParameterError(
                    f"level n = {n} is too large: the level-n constants "
                    "overflow a float")
            return ExpansionDiagnostics(n, theta_n, lambda_n, xi_n, a_n, A_n)
        survivors = refine(pmap, hole, n).cylinders(n)
        d = d_adic_degree(pmap)
        table = {c.itinerary: (_cylinder_interval(pmap, c.itinerary, d),
                               math.prod(slopes[w] for w in c.itinerary), m_I)
                 for c in survivors}
    else:
        cylinders0 = refine(pmap, Hole.empty(), n).cylinders(n)
        if not cylinders0:
            raise EmptyPartitionError(f"no level-{n} cylinders")
        table = {}
        for c in cylinders0:
            z = c.hull.as_raw()
            table[c.itinerary] = (z, *_sup_deriv_and_image(pmap, c.itinerary, *z))
        lambda_n = max(_log_ratio(sup) / n for _, sup, _ in table.values())
        xi_n = max(_log_ratio(sup / m_img) / n for _, sup, m_img in table.values())
        survivors = cylinders0 if hole.is_empty else refine(pmap, hole, n).cylinders(n)

    theta_n = float("-inf")
    a_n = A_n = 0.0
    for cyl in survivors:
        word = cyl.itinerary
        prod = math.prod(wvals[w] for w in word)
        if prod > 0:
            # indicator weights give exactly 0.0; `or 0.0` avoids -0.0
            theta_n = max(theta_n, _log_ratio(prod) / n or 0.0)
        (zlo, zhi), sup, m_img = table[word]
        var = sum((c.lo > zlo) + (c.hi < zhi) for c in cyl.components)
        a_n = max(a_n, float(prod) * (3.0 + var))
        A_prime = float(prod) * (2.0 + var) * float(Fraction(sup) / m_img)
        A_n = max(A_n, A_prime + float(prod) * float(sup))
    return ExpansionDiagnostics(n, theta_n, lambda_n, xi_n, a_n, A_n)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_level_counts(tree: RefinementTree, path: str, n_max: int | None = None):
    """CSV of per-level survivor counts and entropy estimates."""
    depth = n_max if n_max is not None else tree.depth
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("level,count,entropy_estimate\n")
        for n in range(1, depth + 1):
            fh.write(f"{n},{tree.count(n)},{entropy_estimate(tree, n):.15g}\n")
