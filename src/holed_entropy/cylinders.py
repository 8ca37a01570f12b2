"""Exact refinement and counting of surviving cylinder sets.

Cylinders are refined backwards: each level-(k+1) component is the pullback
of a level-k component through one branch inverse, intersected with the
branch domain, minus the hole.  Every component therefore has explicit exact
endpoints, and forward image lengths come from endpoint images of the
monotone composition.

One driver loop in :func:`refine` owns the levels, extinction and the
component cap, and builds each level from the previous one with a kernel
chosen per level.  Maps and holes are exact (see :mod:`.mapmodel`), and a
level is stored in one of two forms:

* integer pairs: Python lists of ``(num, den)`` endpoints with ``den > 0``,
  for any map.  Branch inverses are 2x2 integer matrices, so a step does no
  Fraction arithmetic; values become Fraction only when a level is read;
* int64 arrays: numpy arrays of endpoints scaled to integers over
  ``D0 * d**n``, with each branch step vectorised.  They are used only for
  uniform-affine maps (one integer slope magnitude ``d``; the d-adic
  family in particular), from a level of at least ``_ARRAY_MIN_COMPONENTS``
  components, and while the next level's scaled values fit in int64.  A
  stored component then takes ~21 bytes (two int64 endpoints, an int32
  parent, a uint8 branch) instead of four Python objects.  A step sizes
  the new level before writing it and fills it run by run, so it holds
  the new level and one run's parent indices (4 bytes per component of
  that run) besides the level it reads.

numpy is imported only when the int64 kernel first runs, so shallow
refinements and every non-affine map never load it.  A level is converted
exactly when the kernel changes between pairs and int64 arrays, and both
build identical trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (EmptyPartitionError, InvalidParameterError,
                     ResourceLimitError)
from .mapmodel import (Affine, Branch, Hole, IntervalOpen, PiecewiseMap, _exact,
                       subtract_pieces)

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
    def level(self) -> int:
        return len(self.itinerary)

    @property
    def hull(self) -> IntervalOpen:
        return IntervalOpen(self.components[0].lo, self.components[-1].hi)


class _Level:
    """One level's components as parallel columns plus parent links.

    List levels hold Python lists and ``den`` is None: endpoints are integer
    ``(num, den)`` pairs with ``den > 0``.  Int64 levels hold numpy arrays:
    endpoints as int64 scaled by ``den``, ``parent`` as int32 and ``branch``
    as the smallest unsigned type that holds every branch index.
    """

    __slots__ = ("den", "lo", "hi", "parent", "branch")

    def __init__(self, den: Optional[int] = None, lo=None, hi=None,
                 parent=None, branch=None):
        self.den = den
        self.lo = [] if lo is None else lo
        self.hi = [] if hi is None else hi
        self.parent = [] if parent is None else parent
        self.branch = [] if branch is None else branch

    def __len__(self):
        return len(self.lo)

    def endpoints(self) -> tuple[list, list]:
        """Raw (lo, hi) columns as reduced Fractions of Python ints."""
        if self.den is None:
            return ([Fraction(u, v) for u, v in self.lo],
                    [Fraction(u, v) for u, v in self.hi])
        # tolist() first: Fraction(np.int64(x), den) would keep the numpy
        # numerator, which later overflows silently
        den = self.den
        return ([Fraction(v, den) for v in self.lo.tolist()],
                [Fraction(v, den) for v in self.hi.tolist()])

    def links(self) -> tuple[list[int], list[int]]:
        """(branch, parent) columns as Python ints."""
        if self.den is None:
            return self.branch, self.parent
        return self.branch.tolist(), self.parent.tolist()


class RefinementTree:
    """Survivor components per level, with per-level cardinalities.

    ``counts`` stops at the first extinct level; deeper counts are zero by
    convention (``count`` implements that).
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
        return list(zip(*self._levels[self._stored_level(n) - 1].endpoints()))

    def itinerary(self, n: int, i: int) -> tuple[int, ...]:
        word = []
        for lv in reversed(self._levels[:self._stored_level(n)]):
            word.append(int(lv.branch[i]))
            i = int(lv.parent[i])
        return tuple(word)

    def itineraries(self, n: int) -> list[tuple[int, ...]]:
        n = self._stored_level(n)
        idx = range(len(self._levels[n - 1]))
        columns = []
        for lv in reversed(self._levels[:n]):
            branch, parent = lv.links()
            columns.append([branch[i] for i in idx])
            idx = [parent[i] for i in idx]
        return list(zip(*columns))

    def cylinders(self, n: int) -> list[Cylinder]:
        """Components grouped by itinerary, groups ordered by first appearance."""
        groups: dict[tuple, list[IntervalOpen]] = {}
        for (lo, hi), word in zip(self.component_intervals(n), self.itineraries(n)):
            groups.setdefault(word, []).append(IntervalOpen(lo, hi))
        return [Cylinder(w, tuple(sorted(cs, key=lambda c: c.lo)))
                for w, cs in groups.items()]


# ---------------------------------------------------------------------------
# refinement kernels
# ---------------------------------------------------------------------------

# The int64 kernel runs only on levels of at least this many components.
# Importing numpy costs ~0.13 s; the pair kernel costs ~1-2 us per d-adic
# component (no hole / one hole piece) and the int64 kernel ~0.1 us, so the
# import pays for itself after ~10^5 components.  A refinement that stays
# below 10^3 components per level never pays it; past that size the levels
# grow geometrically and reach that total within ~10 levels.
_ARRAY_MIN_COMPONENTS = 1000


class _UniformAffine:
    """Scaled-integer data for maps with a common integer |slope| = d.

    Level-n endpoints are integers over ``den(n) = D0 * d**n``, and pulling a
    level-n endpoint back through a branch is one integer subtraction at
    scale ``den(n + 1)``.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        sigs = []
        for b in pmap.branches:
            if not isinstance(b.kind, Affine):
                raise ValueError
            s = b.kind.slope
            if s.denominator != 1 or abs(s) < 2:
                raise ValueError
            sigs.append(int(s))
        mags = {abs(s) for s in sigs}
        if len(mags) != 1:
            raise ValueError
        self.d = mags.pop()
        ends = list(pmap.codomain.as_raw())
        offsets = [b.kind.offset for b in pmap.branches]
        images = [b.image_raw() for b in pmap.branches]
        for lo, hi in [*pmap.branch_domains_raw(), *images, *hole.pieces]:
            ends += [lo, hi]
        D0 = 1
        for q in [v.denominator for v in ends + offsets]:
            D0 = D0 * q // math.gcd(D0, q)
        self.D0 = D0
        self.signs = [1 if s > 0 else -1 for s in sigs]
        self.offsets0 = [int(o * D0) for o in offsets]
        # each branch domain minus the hole, left to right: the pieces of
        # the level-1 survivor set
        self.windows0 = [[(int(lo * D0), int(hi * D0))
                          for lo, hi in subtract_pieces(dlo, dhi, hole.pieces)]
                         for dlo, dhi in pmap.branch_domains_raw()]
        # largest magnitude, in units of 1/D0, of any value the kernel
        # stores at scale den(n) (offsets enter one level coarser); D0
        # itself for maps on [0, 1], so the int64 rule is D0 * d**n < 2**63
        self.bound = max([D0] + [abs(int(v * D0)) for v in ends]
                         + [-(-abs(o) // self.d) for o in self.offsets0])

    def den(self, level: int) -> int:
        return self.D0 * self.d ** level

    def fits_int64(self, level: int) -> bool:
        return self.bound * self.d ** level < 2 ** 63


def _try_uniform_affine(pmap: PiecewiseMap, hole: Hole) -> Optional[_UniformAffine]:
    try:
        return _UniformAffine(pmap, hole)
    except ValueError:
        return None


def _cap_exceeded(cap: int, level: int) -> ResourceLimitError:
    return ResourceLimitError(f"component cap {cap} exceeded at level {level}")


def _store(lv: _Level, comps, parent: int, b: int, cap: int, level: int):
    if len(lv) + len(comps) > cap:
        raise _cap_exceeded(cap, level)
    for lo, hi in comps:
        lv.lo.append(lo)
        lv.hi.append(hi)
        lv.parent.append(parent)
        lv.branch.append(b)


def _pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def _inverse_matrix(branch: Branch) -> tuple[int, int, int, int]:
    """Integers (A, B, C, D) with branch^-1(y) = (A y + B) / (C y + D) and
    C y + D > 0 on the branch image closure.

    The inverse's pole is the image of infinity, which lies outside the image
    closure, so one sign flip settles the sign of C y + D on all of it.
    """
    k = branch.kind
    if isinstance(k, Affine):
        m = (1, -k.offset, 0, k.slope)
    else:
        m = (k.s, -k.q, -k.r, k.p)
    scale = math.lcm(*(x.denominator for x in m))
    A, B, C, D = (int(x * scale) for x in m)
    if C * branch.image_raw()[0] + D < 0:
        A, B, C, D = -A, -B, -C, -D
    return A, B, C, D


def _subtract_pairs(lo, hi, pieces) -> list:
    """:func:`subtract_pieces` on (num, den) pairs, den > 0; ``lo < hi``."""
    out = []
    cu, cv = lo
    hu, hv = hi
    for (au, av), (bu, bv) in pieces:
        if bu * cv <= cu * bv:
            continue
        if au * hv >= hu * av:
            break
        if au * cv > cu * av:
            out.append(((cu, cv), (au, av)))
        cu, cv = bu, bv
        if cu * hv >= hu * cv:
            return out
    out.append(((cu, cv), hi))
    return out


class _PairKernel:
    """Python lists of integer (num, den) endpoint pairs, den > 0; any map.

    A branch inverse is the integer matrix of :func:`_inverse_matrix`, so a
    step is integer multiplications and cross-multiplied comparisons only.
    Pairs are not reduced: a gcd per endpoint costs more than the few extra
    bits it saves.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        self.doms = [(_pair(lo), _pair(hi)) for lo, hi in pmap.branch_domains_raw()]
        self.imgs = [(_pair(lo), _pair(hi)) for lo, hi in
                     (b.image_raw() for b in pmap.branches)]
        self.mats = [_inverse_matrix(b) for b in pmap.branches]
        self.signs = [b.orientation for b in pmap.branches]
        self.pieces = [(_pair(lo), _pair(hi)) for lo, hi in hole.pieces]

    def first_level(self, cap: int) -> _Level:
        lv = _Level()
        for b, (dlo, dhi) in enumerate(self.doms):
            _store(lv, _subtract_pairs(dlo, dhi, self.pieces), -1, b, cap, 1)
        return lv

    def step(self, cur: _Level, n: int, cap: int) -> _Level:
        """Level n+1 from level n, one branch at a time."""
        if cur.den is None:
            los, his = cur.lo, cur.hi
        else:
            den = cur.den
            los = [(u, den) for u in cur.lo.tolist()]
            his = [(u, den) for u in cur.hi.tolist()]
        pieces = self.pieces
        nxt = _Level()
        out_lo, out_hi, out_parent, out_branch = nxt.lo, nxt.hi, nxt.parent, nxt.branch
        for b, ((p1, q1), (p2, q2)) in enumerate(self.imgs):
            A, B, C, D = self.mats[b]
            rev = self.signs[b] < 0
            if rev:
                items = zip(range(len(los) - 1, -1, -1), reversed(los), reversed(his))
            else:
                items = zip(range(len(los)), los, his)
            for i, (u1, v1), (u2, v2) in items:
                # clip to the branch image, skip if empty
                if u1 * q1 < p1 * v1:
                    u1, v1 = p1, q1
                if u2 * q2 > p2 * v2:
                    u2, v2 = p2, q2
                if u2 * v1 <= u1 * v2:
                    continue
                lo = (A * u1 + B * v1, C * u1 + D * v1)
                hi = (A * u2 + B * v2, C * u2 + D * v2)
                if rev:
                    lo, hi = hi, lo
                # _store inlined: calling it per component measured ~35% slower
                comps = _subtract_pairs(lo, hi, pieces) if pieces else ((lo, hi),)
                if len(out_lo) + len(comps) > cap:
                    raise _cap_exceeded(cap, n + 1)
                for lo, hi in comps:
                    out_lo.append(lo)
                    out_hi.append(hi)
                    out_parent.append(i)
                    out_branch.append(b)
        return nxt


class _Int64Kernel:
    """numpy int64 arrays scaled by den(n); uniform-affine maps only.

    Valid for a step n -> n+1 while ``u.fits_int64(n + 1)``: every stored
    value and every offset then fits in an int64, and so does every
    difference the step forms.

    A level is sorted and disjoint (``lo[i] < hi[i] <= lo[i+1]``): branch
    domains are ordered and disjoint, and each branch keeps the order of its
    pullbacks.  So the level-n components that meet one window (a branch
    domain minus the hole, pushed forward through the branch) form a run
    ``[s, e)`` found by two binary searches, and the window cuts only the
    first and the last of them.  A step sizes the new level from those runs,
    checks the cap, and writes each run into its slice of the new columns.
    It holds the new level and no more than one run's parent indices
    besides: about 4 bytes per component of the largest run.
    """

    def __init__(self, u: _UniformAffine):
        import numpy as np
        self.np = np
        self.u = u
        self.branch_type = np.min_scalar_type(len(u.signs) - 1)

    def step(self, cur: _Level, n: int, cap: int) -> _Level:
        """Level n+1 from level n, one window at a time."""
        np, u = self.np, self.u
        if cur.den is None:
            # exact: every level-n endpoint is a multiple of 1/den(n)
            den = u.den(n)
            lo = np.array([a * den // b for a, b in cur.lo], dtype=np.int64)
            hi = np.array([a * den // b for a, b in cur.hi], dtype=np.int64)
        else:
            lo, hi = cur.lo, cur.hi
        scale = u.d ** n
        runs = []
        total = 0
        for b, sign in enumerate(u.signs):
            on = u.offsets0[b] * scale
            for wlo, whi in u.windows0[b]:
                # the window at scale den(n+1), pushed forward to den(n)
                wlo, whi = wlo * scale * u.d, whi * scale * u.d
                ylo, yhi = (wlo + on, whi + on) if sign > 0 else (on - whi, on - wlo)
                s = int(hi.searchsorted(ylo, "right"))
                e = int(lo.searchsorted(yhi, "left"))
                if s < e:
                    runs.append((b, sign, on, s, e, max(int(lo[s]), ylo),
                                 min(int(hi[e - 1]), yhi)))
                    total += e - s
        if total > cap:
            raise _cap_exceeded(cap, n + 1)
        parent_type = np.int32 if len(cur) <= np.iinfo(np.int32).max else np.int64
        nlo = np.empty(total, dtype=np.int64)
        nhi = np.empty(total, dtype=np.int64)
        parent = np.empty(total, dtype=parent_type)
        branch = np.empty(total, dtype=self.branch_type)
        k = 0
        for b, sign, on, s, e, first, last in runs:
            j = k + e - s
            if sign > 0:
                np.subtract(lo[s:e], on, out=nlo[k:j])
                np.subtract(hi[s:e], on, out=nhi[k:j])
                nlo[k], nhi[j - 1] = first - on, last - on
                parent[k:j] = np.arange(s, e, dtype=parent_type)
            else:
                np.subtract(on, hi[s:e][::-1], out=nlo[k:j])
                np.subtract(on, lo[s:e][::-1], out=nhi[k:j])
                nlo[k], nhi[j - 1] = on - last, on - first
                parent[k:j] = np.arange(e - 1, s - 1, -1, dtype=parent_type)
            branch[k:j] = b
            k = j
        return _Level(u.den(n + 1), nlo, nhi, parent, branch)


def refine(pmap: PiecewiseMap, hole: Hole, n_max: int,
           component_cap: int = DEFAULT_COMPONENT_CAP) -> RefinementTree:
    """Survivor components for levels 1..n_max.

    Raises :class:`ResourceLimitError` before storing a batch that would
    take any level past ``component_cap`` components.  Stops early (with the
    zero-count convention) once a level dies out entirely.

    The int64 kernel takes the step from level n when the map is
    uniform-affine, level n has at least ``_ARRAY_MIN_COMPONENTS`` components
    and level n+1 still fits in int64.  Every other step runs on Python
    lists of integer pairs.  The two kernels build identical trees.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    lists = _PairKernel(pmap, hole)
    uniform = _try_uniform_affine(pmap, hole)
    arrays = None
    levels = [lists.first_level(component_cap)]
    while len(levels) < n_max and len(levels[-1]):
        cur, n = levels[-1], len(levels)
        kernel = lists
        if (uniform is not None and len(cur) >= _ARRAY_MIN_COMPONENTS
                and uniform.fits_int64(n + 1)):
            if arrays is None:
                arrays = _Int64Kernel(uniform)
            kernel = arrays
        levels.append(kernel.step(cur, n, component_cap))
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
    prod_cache: dict[tuple, Fraction] = {}
    for word in tree.itineraries(n):
        prod = prod_cache.get(word)
        if prod is None:
            prod = Fraction(1)
            for w in word:
                prod *= vals[w]
            prod_cache[word] = prod
        total += prod
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


def _is_standard_d_adic(pmap: PiecewiseMap) -> Optional[int]:
    if pmap.codomain.as_raw() != (Fraction(0), Fraction(1)):
        return None
    d = len(pmap.branches)
    for k, b in enumerate(pmap.branches):
        if not isinstance(b.kind, Affine):
            return None
        if b.kind.slope != d or b.kind.offset != -k:
            return None
        if b.domain.as_raw() != (Fraction(k, d), Fraction(k + 1, d)):
            return None
    return d


def _cylinder_interval(pmap: PiecewiseMap, word: Sequence[int]):
    """Endpoints of the unrestricted cylinder with the given itinerary."""
    d = _is_standard_d_adic(pmap)
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
    and walks the survivors grouped by word: the weight is multiplied by the
    indicator of the survivor set and the variation term counts the component
    ends inside each cylinder (none without a hole, where the survivors are
    the unrestricted cylinders themselves).
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
        survivors = refine(pmap, hole, n)
    else:
        tree0 = refine(pmap, Hole.empty(), n)
        if tree0.count(n) == 0:
            raise EmptyPartitionError(f"no level-{n} cylinders")
        table = {}
        for (lo, hi), word in zip(tree0.component_intervals(n), tree0.itineraries(n)):
            table[word] = ((lo, hi), *_sup_deriv_and_image(pmap, word, lo, hi))
        lambda_n = max(_log_ratio(sup) / n for _, sup, _ in table.values())
        xi_n = max(_log_ratio(sup / m_img) / n for _, sup, m_img in table.values())
        survivors = tree0 if hole.is_empty else refine(pmap, hole, n)

    groups: dict[tuple, list] = {}
    for interval, word in zip(survivors.component_intervals(n), survivors.itineraries(n)):
        groups.setdefault(word, []).append(interval)
    if fast:
        table = {word: (_cylinder_interval(pmap, word),
                        math.prod(slopes[w] for w in word), m_I) for word in groups}
    theta_n = float("-inf")
    a_n = A_n = 0.0
    for word, comps in groups.items():
        prod = math.prod(wvals[w] for w in word)
        if prod > 0:
            # indicator weights give exactly 0.0; `or 0.0` avoids -0.0
            theta_n = max(theta_n, _log_ratio(prod) / n or 0.0)
        (zlo, zhi), sup, m_img = table[word]
        var = sum((lo > zlo) + (hi < zhi) for lo, hi in comps)
        a_n = max(a_n, float(prod) * (3.0 + var))
        A_prime = float(prod) * (2.0 + var) * float(Fraction(sup) / m_img)
        A_n = max(A_n, A_prime + float(prod) * float(sup))
    return ExpansionDiagnostics(n, theta_n, lambda_n, xi_n, a_n, A_n)


# ---------------------------------------------------------------------------
# cross-engine comparison
# ---------------------------------------------------------------------------

@dataclass
class EngineComparison:
    level: int
    oracle_count: int
    oracle_entropy: float
    kneading_entropy: Optional[float]
    markov_entropy: Optional[float]
    differences: dict

    def applicable_engines(self) -> list[str]:
        out = ["oracle"]
        if self.kneading_entropy is not None:
            out.append("kneading")
        if self.markov_entropy is not None:
            out.append("markov")
        return out


def left_hole_parameter(pmap: PiecewiseMap, hole: Hole) -> Optional[Fraction]:
    """The parameter a when (map, hole) is the doubling map with hole [a, 1]."""
    if _is_standard_d_adic(pmap) != 2 or len(hole.pieces) != 1:
        return None
    lo, hi = hole.pieces[0]
    if hi != 1 or not (Fraction(1, 2) < lo < 1):
        return None
    return lo


def compare_engines(pmap: PiecewiseMap, hole: Hole, n: int) -> EngineComparison:
    """Run every applicable engine and report absolute differences.

    Inapplicable engines are reported as absent, never as errors.
    """
    tree = refine(pmap, hole, n)
    oracle_h = entropy_estimate(tree, n)
    kn = None
    a = left_hole_parameter(pmap, hole)
    if a is not None:
        from .kneading import entropy_left_hole
        kn = entropy_left_hole(a).root.entropy
    from .errors import NotFinitelyMarkovError
    from .markov import entropy_markov
    try:
        mk = entropy_markov(pmap, hole).entropy
    except (NotFinitelyMarkovError, ResourceLimitError):
        mk = None
    diffs = {}
    if kn is not None:
        diffs["oracle_vs_kneading"] = abs(oracle_h - kn)
    if mk is not None:
        diffs["oracle_vs_markov"] = abs(oracle_h - mk)
    if kn is not None and mk is not None:
        diffs["kneading_vs_markov"] = abs(kn - mk)
    return EngineComparison(n, tree.count(n), oracle_h, kn, mk, diffs)


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
