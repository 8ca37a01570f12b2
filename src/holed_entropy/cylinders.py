"""Exact refinement and counting of surviving cylinder sets.

Cylinders are refined backwards: each level-(k+1) component is the pullback
of a level-k component through one branch inverse, intersected with the
branch domain, minus the hole.  Every component therefore has explicit exact
endpoints, and forward image lengths come from endpoint images of the
monotone composition.

One driver loop in :func:`refine` owns the levels, extinction and the
component cap, and builds each level from the previous one with a kernel
chosen per level.  Maps and holes are exact (see :mod:`.mapmodel`).  A
level is sorted and disjoint, so every kernel steps window by window: the
level-n components that meet one window (a branch domain minus the hole,
pushed forward through the branch) form a run found by two binary
searches, the window cuts only the first and the last of them, and the
whole run is pulled back at once.

Every level keeps its runs as ``(branch, s, e)``, which link each of its
components to a parent and a branch; only the deepest level keeps its
endpoints.  A level's endpoints are dropped once the next level is built, so
a refinement holds at most two levels of endpoints and the component cap
bounds its memory.  The endpoints are stored as one of:

* pair lists: Python lists of integer ``(num, den)`` endpoints with
  ``den > 0``, for any map.  Branch inverses are 2x2 integer matrices, so a
  step does no Fraction arithmetic (~0.5-0.8 us per component); values
  become Fraction only when a level is read;
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
  level.  Both array forms share one step: it sizes the new level before
  writing it and fills it run by run, so it holds the new level and one
  run's temporaries besides the level it reads.

numpy is imported only when it pays: once it is loaded, array steps start
at ``_ARRAY_MIN_COMPONENTS`` components; before, they wait for a level from
which the pair kernel would write ``_NUMPY_WORTH_COMPONENTS`` components by
the requested depth.  A level is converted exactly when its form changes,
and all forms build identical trees.
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
    """One level: its runs, and its endpoint columns while it is the deepest.

    ``runs`` holds one ``(branch, s, e)`` per window run: the level's next
    ``e - s`` components are the pullbacks of components ``s:e`` of the
    level before through ``branch``, in reverse order when the branch
    reverses orientation.  Level 1 has one run ``(branch, -1, 0)`` per
    window: one component and no parent.  A level is counted by its runs.

    :func:`refine` drops a level's endpoint columns (``lo`` and ``hi`` become
    None) once the next level is built.  While kept, they take one of three
    forms:

    * pair lists: Python lists, endpoints as integer ``(num, den)`` pairs
      with ``den > 0``, and ``den`` None;
    * shared den: numpy int64 endpoint numerators over the denominator
      ``den`` of the whole level (maps whose branches are all affine);
    * int64 pairs: numpy 2 x n int64 endpoints, numerators in row 0 and
      denominators (> 0) in row 1, and ``den`` None.
    """

    __slots__ = ("runs", "size", "den", "lo", "hi")

    def __init__(self, runs: list, lo, hi, den: Optional[int] = None):
        self.runs, self.lo, self.hi, self.den = runs, lo, hi, den
        self.size = sum(e - s for _, s, e in runs)

    def __len__(self):
        return self.size

    def pairs(self) -> tuple[list, list]:
        """(lo, hi) columns as lists of (num, den) pairs of Python ints."""
        if isinstance(self.lo, list):
            return self.lo, self.hi
        # tolist() first: numpy integers would overflow silently later on
        if self.den is not None:
            den = self.den
            return ([(u, den) for u in self.lo.tolist()],
                    [(u, den) for u in self.hi.tolist()])
        return list(zip(*self.lo.tolist())), list(zip(*self.hi.tolist()))

    def endpoints(self) -> tuple[list, list]:
        """Raw (lo, hi) columns as reduced Fractions of Python ints."""
        lo, hi = self.pairs()
        return [Fraction(u, v) for u, v in lo], [Fraction(u, v) for u, v in hi]

    def links(self, signs: Sequence[int]) -> tuple[list[int], list[int]]:
        """(branch, parent) columns as Python ints, expanded from the runs;
        ``signs`` holds each branch's orientation."""
        branch, parent = [], []
        for b, s, e in self.runs:
            branch += [b] * (e - s)
            parent += range(s, e) if signs[b] > 0 else range(e - 1, s - 1, -1)
        return branch, parent


class RefinementTree:
    """Survivor components per level, with per-level cardinalities.

    ``counts`` stops at the first extinct level; deeper counts are zero by
    convention (``count`` implements that).  Every level keeps its runs, so
    counts and itineraries are read at any level, but only the deepest level
    keeps its endpoints: reading the endpoints of a shallower level
    (``component_intervals`` or ``cylinders``) refines again to that level.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole, levels: list[_Level],
                 extinct: bool):
        self.map = pmap
        self.hole = hole
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
        """Raw (lo, hi) pairs of the level-n components, left to right."""
        n = self._stored_level(n)
        tree = self if n == self.depth else refine(self.map, self.hole, n,
                                                    max(self.counts[:n]))
        return list(zip(*tree._levels[-1].endpoints()))

    def itineraries(self, n: int) -> list[tuple[int, ...]]:
        n = self._stored_level(n)
        signs = [b.orientation for b in self.map.branches]
        idx = range(len(self._levels[n - 1]))
        columns = []
        for lv in reversed(self._levels[:n]):
            branch, parent = lv.links(signs)
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
# refinement kernels
# ---------------------------------------------------------------------------

# Array steps run only on levels of at least this many components.  A step
# on int64 arrays has a fixed cost of ~0.02-0.08 ms (the run searches and a
# few numpy calls per run); at 10^3 components the pair kernel, at ~0.5-0.8
# us per component, costs several times that.
_ARRAY_MIN_COMPONENTS = 1000

# Importing numpy costs ~0.1 s, as much as ~1.5 * 10^5 components written
# by the pair kernel.  When numpy is not loaded yet, array steps wait for a
# level from which the pair kernel would write that many components by the
# requested depth, were the levels to keep growing at the last step's rate:
# shallow refinements (farey 4/5 to depth 16 writes ~1.3 * 10^5 components
# from its first level of 10^3) then start and end without numpy.
_NUMPY_WORTH_COMPONENTS = 150_000


def _numpy_loaded() -> bool:
    return "numpy" in sys.modules


def _arrays_pay(levels: list[_Level], n_max: int) -> bool:
    """Whether array steps from the last of ``levels`` on are worth loading
    numpy (see ``_NUMPY_WORTH_COMPONENTS``)."""
    if _numpy_loaded():
        return True
    size, ahead = len(levels[-1]), 0
    rate = size / len(levels[-2]) if len(levels) > 1 else 1
    for _ in range(n_max - len(levels)):
        size *= rate
        ahead += size
        if ahead >= _NUMPY_WORTH_COMPONENTS:
            return True
        if size < 1:
            break
    return False


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


def _bisect(col, y, strict: bool, lo: int = 0) -> int:
    """First index i >= lo with col[i] > y (strict) or col[i] >= y; ``col``
    is a sorted sequence of (num, den) pairs and ``y`` one pair, dens > 0."""
    p, q = y
    hi = len(col)
    while lo < hi:
        mid = (lo + hi) // 2
        u, v = col[mid]
        d = u * q - p * v
        if d > 0 or (d == 0 and not strict):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pair_run(los, his, ylo, yhi) -> tuple[int, int, bool, bool]:
    """The run ``s:e`` of a level that meets the open window image
    (ylo, yhi), and whether its first and its last component reach past
    the image and are cut to it.

    ``los`` and ``his`` are the level's sorted (num, den) endpoint
    sequences, ``ylo`` and ``yhi`` pairs, dens > 0.
    """
    s = _bisect(his, ylo, True)
    e = _bisect(los, yhi, False, s)
    if s == e:
        return s, e, False, False
    (u, v), (p, q) = los[s], ylo
    clip_first = u * q < p * v
    (u, v), (p, q) = his[e - 1], yhi
    return s, e, clip_first, u * q > p * v


def _window_runs(windows, run, columns: tuple, n: int, cap: int) -> tuple[list, int]:
    """The runs of level n that each window pulls back, as (branch, window
    lo, window hi, s, e, clip_first, clip_last) with ``run(*columns, ylo,
    yhi)`` the run ``s:e`` and its clips (:func:`_pair_run`), and their
    total length; raises when that passes ``cap``."""
    runs = []
    total = 0
    for b, wins in enumerate(windows):
        for wlo, whi, ylo, yhi in wins:
            s, e, clip_first, clip_last = run(*columns, ylo, yhi)
            if s < e:
                runs.append((b, wlo, whi, s, e, clip_first, clip_last))
                total += e - s
    if total > cap:
        raise _cap_exceeded(cap, n + 1)
    return runs, total


class _PairKernel:
    """Python lists of integer (num, den) endpoint pairs, den > 0; any map.

    A branch inverse is the integer matrix of :func:`_inverse_matrix`, so a
    step is integer multiplications and cross-multiplied comparisons only.
    Pairs are not reduced: a gcd per endpoint costs more than the few extra
    bits it saves.  A run is pulled back by one list comprehension per
    column, ~0.5-0.8 us per component (Moebius or affine branches).
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        self.mats = [_inverse_matrix(b) for b in pmap.branches]
        self.signs = [b.orientation for b in pmap.branches]
        # per branch, its domain minus the hole left to right (the pieces of
        # the level-1 survivor set), each window as (lo, hi, image lo,
        # image hi) pairs
        self.windows = []
        for br, (dlo, dhi) in zip(pmap.branches, pmap.branch_domains_raw()):
            ws = []
            for lo, hi in subtract_pieces(dlo, dhi, hole.pieces):
                ylo, yhi = sorted((br.apply_raw(lo), br.apply_raw(hi)))
                ws.append((_int_pair(lo), _int_pair(hi), _int_pair(ylo), _int_pair(yhi)))
            self.windows.append(ws)

    def first_level(self, cap: int) -> _Level:
        ws = [(b, w) for b, wins in enumerate(self.windows) for w in wins]
        if len(ws) > cap:
            raise _cap_exceeded(cap, 1)
        return _Level([(b, -1, 0) for b, _ in ws],
                      [w[0] for _, w in ws], [w[1] for _, w in ws])

    def step(self, cur: _Level, n: int, cap: int) -> _Level:
        """Level n+1 from level n, one window at a time."""
        los, his = cur.pairs()
        runs, _ = _window_runs(self.windows, _pair_run, (los, his), n, cap)
        nlo, nhi = [], []
        for b, wlo, whi, s, e, clip_first, clip_last in runs:
            A, B, C, D = self.mats[b]
            lo = [(A * u + B * v, C * u + D * v) for u, v in los[s:e]]
            hi = [(A * u + B * v, C * u + D * v) for u, v in his[s:e]]
            if self.signs[b] < 0:
                lo, hi = hi[::-1], lo[::-1]
                clip_first, clip_last = clip_last, clip_first
            if clip_first:
                lo[0] = wlo
            if clip_last:
                hi[-1] = whi
            nlo += lo
            nhi += hi
        return _Level([(b, s, e) for b, _, _, s, e, _, _ in runs], nlo, nhi)


class _ArrayKernel:
    """numpy int64 columns; any map.

    A level is sorted and disjoint (``lo[i] < hi[i] <= lo[i+1]``): branch
    domains are ordered and disjoint, and each branch keeps the order of its
    pullbacks.  A step finds each window's run, sizes the new level from
    the runs, checks the cap, and writes each run into its slice of the new
    columns, cutting only its first and last component to the window.  It
    holds the new level and no more than one run's temporaries besides:
    for int64 pairs, one product column (8 bytes per component).

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
        self.signs = pairs.signs
        self.windows = pairs.windows
        self.mats = pairs.mats
        self.delta = None
        ends = [x for ws in self.windows for w in ws for x in w]
        if all(C == 0 for _, _, C, _ in self.mats):
            reduced = [(A // g, Fraction(B, g), D // g)
                       for A, B, _, D in self.mats for g in (math.gcd(A, D),)]
            delta = self.delta = math.lcm(*(d for _, _, d in reduced))
            scaled = [(a * (delta // d), beta * (delta // d)) for a, beta, d in reduced]
            self.den0 = math.lcm(*(beta.denominator for _, beta in scaled),
                                 *(v for ws in self.windows for w in ws for _, v in w[:2]))
            reach = max([Fraction(1)] + [abs(Fraction(u, v)) for u, v in ends])
            growth = max(max(reach * abs(a), abs(beta), reach * delta) for a, beta in scaled)
            # beta kept as the integer beta * den0
            self.mats = [(a, int(beta * self.den0), 0, delta) for a, beta in scaled]
        else:
            growth = max(max(abs(A) + abs(B), abs(C) + abs(D)) for A, B, C, D in self.mats)
        # the least integer height M with M * growth >= 2**63
        self.height_limit = -(-2 ** 63 // growth)
        self.tall = max([abs(x) for pair in ends for x in pair], default=0) >= 2 ** 63

    def columns(self, cur: _Level, n: int) -> Optional[tuple]:
        """Level n's endpoint columns and shared ``den`` (None for pairs),
        a level of pair lists converted exactly; None from the first level
        that fails the height guard."""
        if self.tall:
            return None
        np = self.np
        lo, hi, den = cur.lo, cur.hi, cur.den
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
            lo, hi = (np.array([u * den // v for u, v in c], dtype=np.int64)
                      for c in (lo, hi))
        return lo, hi, den

    def _pair_array(self, pairs: list):
        np = self.np
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                           count=2 * len(pairs))
        return flat.reshape(len(pairs), 2).T.copy()

    def run(self, lo, hi, den, ylo, yhi) -> tuple[int, int, bool, bool]:
        """:func:`_pair_run` on array columns: over a shared ``den``, two
        ``searchsorted`` calls on the window image scaled to ``den`` and
        rounded inwards, then the exact clip tests."""
        if den is None:
            return _pair_run(_PairColumn(lo), _PairColumn(hi), ylo, yhi)
        (p, q), (r, t) = ylo, yhi
        s = int(hi.searchsorted(p * den // q, "right"))
        e = int(lo.searchsorted(-(-r * den // t), "left"))
        if s >= e:
            return s, e, False, False
        return s, e, int(lo[s]) * q < p * den, int(hi[e - 1]) * t > r * den

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

    def step(self, columns: tuple, n: int, cap: int) -> _Level:
        """Level n+1 from level n, whose ``columns`` are those of
        :meth:`columns`, one window at a time.  Endpoint columns are
        1-D or 2 x n; ``[..., i]`` indexes both."""
        np = self.np
        lo, hi, den = columns
        nden = None if den is None else den * self.delta
        runs, total = _window_runs(self.windows, self.run, (lo, hi, den), n, cap)
        rows = () if den is not None else (2,)
        nlo = np.empty(rows + (total,), dtype=np.int64)
        nhi = np.empty(rows + (total,), dtype=np.int64)
        k = 0
        for b, wlo, whi, s, e, clip_first, clip_last in runs:
            if nden is not None:   # the window ends at scale nden
                wlo, whi = (u * (nden // v) for u, v in (wlo, whi))
            j = k + e - s
            if self.signs[b] > 0:
                self.pull(b, den, lo[..., s:e], nlo[..., k:j])
                self.pull(b, den, hi[..., s:e], nhi[..., k:j])
            else:
                self.pull(b, den, hi[..., s:e][..., ::-1], nlo[..., k:j])
                self.pull(b, den, lo[..., s:e][..., ::-1], nhi[..., k:j])
                clip_first, clip_last = clip_last, clip_first
            if clip_first:
                nlo[..., k] = wlo
            if clip_last:
                nhi[..., j - 1] = whi
            k = j
        return _Level([(b, s, e) for b, _, _, s, e, _, _ in runs], nlo, nhi, nden)


class _PairColumn:
    """A 2 x n int64 endpoint column read as a sequence of (num, den) pairs
    of Python ints, for :func:`_pair_run`."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __len__(self):
        return self.a.shape[1]

    def __getitem__(self, i):
        return int(self.a[0, i]), int(self.a[1, i])


def refine(pmap: PiecewiseMap, hole: Hole, n_max: int,
           component_cap: int = DEFAULT_COMPONENT_CAP) -> RefinementTree:
    """Survivor components for levels 1..n_max.

    Raises :class:`ResourceLimitError` before storing a batch that would
    take any level past ``component_cap`` components (which must be
    >= 0).  Stops early (with the zero-count convention) once a level dies
    out entirely.

    A step from level n runs on int64 arrays when level n has at least
    ``_ARRAY_MIN_COMPONENTS`` components, numpy pays for itself (it is
    loaded, or the refinement has enough levels ahead; see
    ``_NUMPY_WORTH_COMPONENTS``) and level n+1 fits in int64: as numerators
    over a shared denominator when every branch is affine, as (num, den)
    pairs otherwise.  Every other step runs on Python lists of integer
    pairs.  All forms build identical trees.

    Every level keeps its runs, and level n's endpoints are dropped once
    level n+1 is built, so the cap bounds the memory too: at most two
    levels of endpoints are held at once.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    if component_cap < 0:
        raise InvalidParameterError("component_cap must be >= 0")
    lists = _PairKernel(pmap, hole)
    arrays = None
    levels = [lists.first_level(component_cap)]
    while len(levels) < n_max and len(levels[-1]):
        cur, n = levels[-1], len(levels)
        columns = None
        if len(cur) >= _ARRAY_MIN_COMPONENTS:
            if arrays is None and _arrays_pay(levels, n_max):
                arrays = _ArrayKernel(lists)
            if arrays is not None:
                columns = arrays.columns(cur, n)
        levels.append(lists.step(cur, n, component_cap) if columns is None
                      else arrays.step(columns, n, component_cap))
        cur.lo = cur.hi = None
    return RefinementTree(pmap, hole, levels, len(levels[-1]) == 0)


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
