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
A count therefore follows the orbit down the stored runs to one *anchor*
level that keeps its endpoints, and ends in one binary search there.

Endpoints are read-only data: :meth:`RefinementTree.component_intervals`
and :meth:`RefinementTree.cylinders` replay the stored runs from level 1.
A replay step pulls known runs back in one of two forms:

* pair lists: Python lists of integer ``(num, den)`` endpoints with
  ``den > 0``, for any map.  Branch inverses are 2x2 integer matrices, so a
  step does no Fraction arithmetic (~0.5-0.8 us per component); values
  become Fraction only when the level is returned;
* int64 arrays, for any map from a level of at least
  ``_ARRAY_MIN_COMPONENTS`` components and while an exact height guard
  says the next level fits in int64.  When every branch is affine, the
  endpoints are numerators over one denominator shared by the level,
  which the branch inverses multiply by one common factor per step; a run
  is pulled back with one addition or subtraction per column when the
  slopes are integers (the d-adic family: ~0.01 us and 16 bytes per
  component).  Maps with a Moebius branch store ``(num, den)`` columns and
  pull a run back with the branch inverse matrices (~0.03 us and 32 bytes
  per component); pairs are not reduced, so their heights grow with the
  level.  Both array forms share one step: it fills the new level run by
  run, so it holds the new level and one run's temporaries besides the
  level it reads.

numpy is imported only when it pays: once it is loaded, array steps start
at ``_ARRAY_MIN_COMPONENTS`` components; before, they wait for a level from
which the replay writes ``_NUMPY_WORTH_COMPONENTS`` components, which the
known counts give exactly.  :func:`refine` itself never imports numpy.  A
level is converted exactly when its form changes, and all forms give
identical endpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .errors import (EmptyPartitionError, InvalidParameterError,
                     ResourceLimitError)
from .mapmodel import (Affine, Branch, Hole, IntervalOpen, PiecewiseMap,
                       _exact, _int_pair, d_adic_degree, subtract_pieces)

DEFAULT_COMPONENT_CAP = 10_000_000


def _log_ratio(num, den=1) -> float:
    """log(num/den) for possibly huge exact values."""
    if isinstance(num, Fraction):
        num, den2 = num.numerator, num.denominator
        den = den * den2
    if isinstance(den, Fraction):
        num = num * den.denominator
        den = den.numerator
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
    window, and no parent.  A level is counted by its runs.
    """

    __slots__ = ("runs", "starts")

    def __init__(self, runs: list):
        self.runs = runs
        self.starts = starts = [0]
        for s, e in runs:
            starts.append(starts[-1] + e - s)

    def __len__(self):
        return self.starts[-1]

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
    level 1 on every read.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole, kernel: _PairKernel,
                 levels: list[_Level], extinct: bool):
        self.map = pmap
        self.hole = hole
        self._kernel = kernel
        self._levels = levels
        self._extinct = extinct
        self.counts = [len(lv) for lv in levels]

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

    def component_intervals(self, n: int) -> list[tuple]:
        """Raw (lo, hi) pairs of the level-n components, left to right.

        They are replayed from level 1 through the stored runs.  A step
        runs on int64 arrays when its level has at least
        ``_ARRAY_MIN_COMPONENTS`` components, numpy pays for itself (it is
        loaded, or the replay writes at least ``_NUMPY_WORTH_COMPONENTS``
        components from there) and the next level fits in int64; every
        other step runs on pair lists.
        """
        n = self._stored_level(n)
        kernel, counts = self._kernel, self.counts
        lo, hi = kernel.ends
        den = arrays = None
        for m in range(1, n):
            columns = None
            if counts[m - 1] >= _ARRAY_MIN_COMPONENTS and (
                    arrays is not None or _numpy_loaded()
                    or sum(counts[m:n]) >= _NUMPY_WORTH_COMPONENTS):
                arrays = arrays or _ArrayKernel(kernel)
                columns = arrays.columns(lo, hi, den, m)
            if columns is None:
                lo, hi = kernel.pull(self._levels[m], *_pairs(lo, hi, den))
                den = None
            else:
                lo, hi, den = arrays.step(*columns, self._levels[m])
        return [(Fraction(*a), Fraction(*b)) for a, b in zip(*_pairs(lo, hi, den))]

    def itineraries(self, n: int) -> list[tuple[int, ...]]:
        n = self._stored_level(n)
        idx = range(len(self._levels[n - 1]))
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
# run search and replay kernels
# ---------------------------------------------------------------------------

# Replay steps run on int64 arrays only from levels of at least this many
# components.  An array step has a fixed cost of ~0.02-0.08 ms (a few numpy
# calls per run); at 10^3 components the pair kernel, at ~0.5-0.8 us per
# component, costs several times that.
_ARRAY_MIN_COMPONENTS = 1000

# Importing numpy costs ~0.1 s, as much as ~1.5 * 10^5 components written
# by the pair kernel.  When numpy is not loaded yet, array steps wait for a
# level from which the replay writes that many components: shallow reads
# (farey 4/5 to depth 16 writes ~1.3 * 10^5 components from its first level
# of 10^3) then start and end without numpy.
_NUMPY_WORTH_COMPONENTS = 150_000

# refine moves the anchor up to the newest level once the orbit steps spent
# since the last move, anchor searches included, reach 1/_REPLAY_PER_STEP of
# the components that the move replays (see _RunSearch).  A move replays
# each level at most once, as a refinement that wrote every level would, so
# the searches add at most about one step per 8 components written; an
# orbit step costs about what pulling a few components back does.
_REPLAY_PER_STEP = 8

# Kinds of count: bit 1 picks the column (0 lo, 1 hi), bit 0 counts the
# endpoints equal to the point too.  A decreasing branch maps lo < y to
# hi > T(y), so it flips both bits.
_LO_BELOW, _LO_UPTO, _HI_BELOW, _HI_UPTO = range(4)


def _numpy_loaded() -> bool:
    return "numpy" in sys.modules


def _cap_exceeded(cap: int, level: int) -> ResourceLimitError:
    return ResourceLimitError(f"component cap {cap} exceeded at level {level}")


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


def _bisect(col, y, upto: int, lo: int, hi: int) -> int:
    """lo plus the number of entries of ``col[lo:hi]`` below ``y``, or at
    most ``y`` when ``upto``; ``col`` is a sorted sequence of (num, den)
    pairs and ``y`` one pair, dens > 0."""
    p, q = y
    while lo < hi:
        mid = (lo + hi) // 2
        u, v = col[mid]
        d = u * q - p * v
        if d > 0 or (d == 0 and not upto):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pairs(lo, hi, den) -> tuple[list, list]:
    """Endpoint columns in any form as lists of (num, den) pairs of Python
    ints (``den`` is the shared den of int64 numerators, or None)."""
    if isinstance(lo, list):
        return lo, hi
    # tolist() first: numpy integers would overflow silently later on
    if den is not None:
        return [(u, den) for u in lo.tolist()], [(u, den) for u in hi.tolist()]
    return list(zip(*lo.tolist())), list(zip(*hi.tolist()))


class _PairKernel:
    """The windows, and replay on Python lists of integer (num, den)
    endpoint pairs, den > 0; any map.

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
    the windows or reaches the anchor, where one :func:`_bisect` in the
    window's slice ends it.

    The orbit of each queried (point, kind) is kept as a chain of
    ``(k, follow, point, kind)`` entries, one per level below the query,
    extended as the levels deepen; ``follow`` says whether window k holds
    the point.  The anchor is level 1 (the window ends) at first; it moves
    up to the newest level, replayed on pair lists from the anchor, once
    the orbit steps spent since the last move, anchor searches included,
    reach ``1 / _REPLAY_PER_STEP`` of the components that replay pulls.
    Small levels thus keep searching the previous level, and an
    exponentially growing tree never writes a large level.
    """

    def __init__(self, kernel: _PairKernel, levels: list[_Level]):
        self.kernel, self.levels = kernel, levels
        self.anchor = (1, *kernel.ends)
        self.steps = self.pending = 0
        self.increasing = [kernel.signs[w[0]] > 0 for w in kernel.windows]
        self.queries = [((ylo, _HI_UPTO), (yhi, _LO_BELOW))
                        for _, _, _, ylo, yhi in kernel.windows]
        self.chains = {key: [self._locate(*key)]
                       for key in chain.from_iterable(self.queries)}

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

    def next_level(self, cap: int):
        """Append the next level, or raise when it passes ``cap``.  First
        replay the anchor up to the newest level when that is due."""
        levels = self.levels
        if self.steps * _REPLAY_PER_STEP >= self.pending:
            a, lo, hi = self.anchor
            for lv in levels[a:]:
                lo, hi = self.kernel.pull(lv, lo, hi)
            self.anchor = (len(levels), lo, hi)
            self.steps = self.pending = 0
        a, lo, hi = self.anchor
        depth = len(levels) - a   # the levels above the anchor
        counts = {}   # per queried (point, kind), the components below it
        for key, chain in self.chains.items():
            while len(chain) <= depth and chain[-1][1]:
                self._extend(chain)
            total, slope = 0, 1
            for j, (k, follow, y, kind) in enumerate(chain):
                lv = levels[-1 - j]
                start = lv.starts[k]
                if not follow:
                    break
                if j == depth:
                    start = _bisect(hi if kind & 2 else lo, y, kind & 1,
                                    start, lv.starts[k + 1])
                    break
                s, e = lv.runs[k]
                if self.increasing[k]:
                    total += slope * (start - s)
                else:
                    total += slope * (start + e)
                    slope = -slope
            self.steps += j + 1
            counts[key] = total + slope * start
        level = _Level([(counts[s], counts[e]) for s, e in self.queries])
        size = level.starts[-1]
        if size > cap:
            raise _cap_exceeded(cap, len(levels) + 1)
        levels.append(level)
        self.pending += size


class _ArrayKernel:
    """Replay on numpy int64 columns; any map.

    A step pulls each known run of the new level into its slice of the new
    columns and cuts its first and last component to the window.  It holds
    the new level and no more than one run's temporaries besides the level
    it reads: for int64 pairs, one product column (8 bytes per component).

    Windows and branch inverses are those of :class:`_PairKernel`.  When
    every inverse (A, B, C, D) is affine (C = 0), it is divided by
    g = gcd(A, D) and scaled to the lcm ``delta`` of the reduced D, so it
    reads y -> (a y + beta) / delta with an integer a and a rational beta;
    levels then store int64 numerators over one shared ``den``, and a run
    is pulled back as ``a num + beta den`` over ``delta den``, one addition
    or subtraction per column when a = +-1 (the d-adic family).  Level n
    has ``den = den0 * delta**(n-1)``, with ``den0`` the lcm of the window
    ends' and the betas' denominators: level 1 is made of window ends and
    each step multiplies ``den`` by ``delta``, while ``beta den`` and every
    window end at the new level's ``den`` stay integers.  Any other map
    stores (num, den) pairs as 2 x n columns and pulls a run back with the
    matrices themselves; pairs are not reduced, so their heights grow with
    the level (~2.7 bits per level on farey 4/5, which leaves int64 past
    level 20).

    One exact height guard holds for both forms: a step from a level of
    height ``M`` runs on int64 while ``M * growth < 2**63`` and every window
    entry fits in int64; every product, sum and stored value of the step
    then does.  For pairs, ``M`` is the largest ``|num|`` or ``den``,
    scanned, and ``growth`` is ``max(|A| + |B|, |C| + |D|)`` over the
    branches.  For a shared den, ``M`` is ``den`` itself: both levels lie
    in the windows, whose ends and images are at most ``r >= 1`` in
    magnitude, so ``growth`` is the largest of ``r |a|``, ``|beta|`` and
    ``r delta`` over the branches (both terms of ``a num + beta den`` and
    their sum then fit).  From the first level that fails the guard every
    step runs on pair lists, and the guard is not tried again.
    """

    def __init__(self, pairs: _PairKernel):
        import numpy as np
        self.np = np
        self.signs, self.windows, self.mats = pairs.signs, pairs.windows, pairs.mats
        self.delta = None
        ends = [x for w in self.windows for x in w[1:]]
        if all(C == 0 for _, _, C, _ in self.mats):
            reduced = [(A // g, Fraction(B, g), D // g)
                       for A, B, _, D in self.mats for g in (math.gcd(A, D),)]
            delta = self.delta = math.lcm(*(d for _, _, d in reduced))
            scaled = [(a * (delta // d), beta * (delta // d)) for a, beta, d in reduced]
            self.den0 = math.lcm(*(beta.denominator for _, beta in scaled),
                                 *(v for w in self.windows for _, v in w[1:3]))
            reach = max([Fraction(1)] + [abs(Fraction(u, v)) for u, v in ends])
            growth = max(max(reach * abs(a), abs(beta), reach * delta) for a, beta in scaled)
            # beta kept as the integer beta * den0
            self.mats = [(a, int(beta * self.den0), 0, delta) for a, beta in scaled]
        else:
            growth = max(max(abs(A) + abs(B), abs(C) + abs(D)) for A, B, C, D in self.mats)
        # the least integer height M with M * growth >= 2**63
        self.height_limit = -(-2 ** 63 // growth)
        self.tall = max([abs(x) for pair in ends for x in pair], default=0) >= 2 ** 63

    def columns(self, lo, hi, den, n: int) -> Optional[tuple]:
        """Level n's endpoint columns (as returned by :meth:`step`, or pair
        lists converted exactly) and shared ``den`` (None for pairs); None
        from the first level that fails the height guard."""
        if self.tall:
            return None
        if self.delta is None:
            if isinstance(lo, list):
                try:
                    lo, hi = self._pair_array(lo), self._pair_array(hi)
                except OverflowError:   # a value past int64
                    self.tall = True
                    return None
            height = max(max(int(c.max()), -int(c.min())) for c in (lo, hi))
        else:
            if den is None:
                den = self.den0 * self.delta ** (n - 1)
            height = den
        self.tall = height >= self.height_limit
        if self.tall:
            return None
        if isinstance(lo, list):   # exact: every endpoint is a multiple of 1/den
            lo, hi = (self.np.array([u * den // v for u, v in c], dtype=self.np.int64)
                      for c in (lo, hi))
        return lo, hi, den

    def _pair_array(self, pairs: list):
        flat = self.np.fromiter(chain.from_iterable(pairs), dtype=self.np.int64,
                                count=2 * len(pairs))
        return flat.reshape(len(pairs), 2).T.copy()

    def pull(self, b: int, den, x, out):
        """Write branch b's inverse of the endpoint column ``x`` to ``out``."""
        np = self.np
        A, B, C, D = self.mats[b]
        if den is None:
            for row, (P, Q) in zip(out, ((A, B), (C, D))):
                np.multiply(x[0], P, out=row)
                row += x[1] * Q
            return
        shift = B * (den // self.den0)
        if A == 1:
            np.add(x, shift, out=out)
        elif A == -1:
            np.subtract(shift, x, out=out)
        else:
            np.multiply(x, A, out=out)
            out += shift

    def step(self, lo, hi, den, level: _Level) -> tuple:
        """Columns and shared den of ``level`` from those of the level
        before, as :meth:`columns` returns them, one run at a time.
        Endpoint columns are 1-D or 2 x n; ``[..., i]`` indexes both."""
        np = self.np
        nden = None if den is None else den * self.delta
        rows = () if den is not None else (2,)
        nlo = np.empty(rows + (len(level),), dtype=np.int64)
        nhi = np.empty_like(nlo)
        for (b, wlo, whi, _, _), (s, e), k in zip(self.windows, level.runs, level.starts):
            if s == e:
                continue
            j = k + e - s
            if self.signs[b] > 0:
                self.pull(b, den, lo[..., s:e], nlo[..., k:j])
                self.pull(b, den, hi[..., s:e], nhi[..., k:j])
            else:
                self.pull(b, den, hi[..., s:e][..., ::-1], nlo[..., k:j])
                self.pull(b, den, lo[..., s:e][..., ::-1], nhi[..., k:j])
            for col, i, (p, q), side in ((nlo, k, wlo, 1), (nhi, j - 1, whi, -1)):
                u, v = (int(col[i]), nden) if nden else col[:, i].tolist()
                if side * (p * v - u * q) > 0:   # the end lies outside the window
                    col[..., i] = p * (nden // q) if nden else (p, q)
        return nlo, nhi, nden


def refine(pmap: PiecewiseMap, hole: Hole, n_max: int,
           component_cap: int = DEFAULT_COMPONENT_CAP) -> RefinementTree:
    """Survivor components for levels 1..n_max.

    Raises :class:`ResourceLimitError` before storing a level of more than
    ``component_cap`` components (which must be >= 0).  Stops early (with
    the zero-count convention) once a level dies out entirely.

    Each level is found as its runs only (:class:`_RunSearch`): two counts
    per window, each following one window-image end's forward orbit down
    the stored runs to the anchor, the one level whose endpoints are kept
    (as pair lists).  The anchor starts at level 1, the window ends, and
    moves up to the newest level, replayed from it, once the orbit steps
    spent since its last move reach ``1 / _REPLAY_PER_STEP`` of the
    components that the move replays.  No other endpoints are written and
    numpy is not imported; the tree keeps the runs, a few per level, and
    replays endpoints when they are read.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    if component_cap < 0:
        raise InvalidParameterError("component_cap must be >= 0")
    kernel = _PairKernel(pmap, hole)
    if len(kernel.windows) > component_cap:
        raise _cap_exceeded(component_cap, 1)
    levels = [_Level([(-1, 0)] * len(kernel.windows))]
    search = _RunSearch(kernel, levels)
    while len(levels) < n_max and len(levels[-1]):
        search.next_level(component_cap)
    return RefinementTree(pmap, hole, kernel, levels, len(levels[-1]) == 0)


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
    plain product of the branch weights along its itinerary.
    """
    if n < 1:
        raise InvalidParameterError("level must be >= 1")
    if len(weight.values) != len(pmap.branches):
        raise InvalidParameterError("weight needs one value per branch")
    vals = weight.values
    tree = refine(pmap, hole, n)
    if tree.count(n) == 0:
        return float("-inf")
    total = Fraction(0)
    for cyl in tree.cylinders(n):
        total += len(cyl.components) * math.prod(vals[w] for w in cyl.itinerary)
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
