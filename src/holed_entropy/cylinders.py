"""Exact refinement and counting of surviving cylinder sets.

Cylinders are refined backwards: each level-(k+1) component is the pullback
of a level-k component through one branch inverse, intersected with the
branch domain, minus the hole.  Every component therefore has explicit exact
endpoints, and forward image lengths come from endpoint images of the
monotone composition.

One driver loop in :func:`refine` owns the levels, extinction and the
component cap, and builds each level from the previous one with a kernel
chosen per level.  A level is stored in one of three forms:

* integer pairs: Python lists of ``(num, den)`` endpoints with ``den > 0``,
  for exact maps (any branches).  Branch inverses are 2x2 integer matrices,
  so a step does no Fraction arithmetic; values become Fraction only when a
  level is read;
* floats: Python lists of float endpoints, for float maps, compared with
  the map's epsilon;
* int64 arrays: numpy arrays of endpoints scaled to integers over
  ``D0 * d**n``, with each branch step vectorised.  They are used only for
  exact uniform-affine maps (one integer slope magnitude ``d``; the d-adic
  family in particular), from a level of at least ``_ARRAY_MIN_COMPONENTS``
  components, and while the next level's scaled values fit in int64.  A
  stored component then takes ~21 bytes (two int64 endpoints, an int32
  parent, a uint8 branch) instead of four Python objects.

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
from .mapmodel import (Affine, Branch, Hole, IntervalOpen, PiecewiseMap,
                       _require_same_mode, subtract_pieces)
from .scalar import Scalar, as_scalar

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
    ``(num, den)`` pairs with ``den > 0`` when ``pairs`` is set (exact maps),
    floats otherwise.  Int64 levels hold numpy arrays: endpoints as int64
    scaled by ``den``, ``parent`` as int32 and ``branch`` as the smallest
    unsigned type that holds every branch index.
    """

    __slots__ = ("den", "lo", "hi", "parent", "branch", "pairs")

    def __init__(self, den: Optional[int] = None, lo=None, hi=None,
                 parent=None, branch=None, pairs: bool = False):
        self.den = den
        self.lo = [] if lo is None else lo
        self.hi = [] if hi is None else hi
        self.parent = [] if parent is None else parent
        self.branch = [] if branch is None else branch
        self.pairs = pairs

    def __len__(self):
        return len(self.lo)

    def endpoints(self) -> tuple[list, list]:
        """Raw (lo, hi) columns as plain Python values: reduced Fraction
        (exact maps) or float."""
        if self.pairs:
            return ([Fraction(u, v) for u, v in self.lo],
                    [Fraction(u, v) for u, v in self.hi])
        if self.den is None:
            return self.lo, self.hi
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
        eps = None if self.map.is_exact else self.map.epsilon
        groups: dict[tuple, list[IntervalOpen]] = {}
        for (lo, hi), word in zip(self.component_intervals(n), self.itineraries(n)):
            groups.setdefault(word, []).append(
                IntervalOpen(Scalar(lo, eps), Scalar(hi, eps)))
        return [Cylinder(w, tuple(sorted(cs, key=lambda c: c.lo.value)))
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
    """Scaled-integer data for exact maps with a common integer |slope| = d.

    Level-n endpoints are integers over ``den(n) = D0 * d**n``, and pulling a
    level-n endpoint back through a branch is one integer subtraction at
    scale ``den(n + 1)``.
    """

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        sigs = []
        for b in pmap.branches:
            if not isinstance(b.kind, Affine):
                raise ValueError
            s = b.kind.slope.value
            if not isinstance(s, Fraction) or s.denominator != 1 or abs(s) < 2:
                raise ValueError
            sigs.append(int(s))
        mags = {abs(s) for s in sigs}
        if len(mags) != 1:
            raise ValueError
        self.d = mags.pop()
        ends = [pmap.codomain.lo.value, pmap.codomain.hi.value]
        offsets = [b.kind.offset.value for b in pmap.branches]
        images = [b.image_raw() for b in pmap.branches]
        for lo, hi in [*pmap.branch_domains_raw(), *images, *hole.pieces]:
            ends += [lo, hi]
        D0 = 1
        for q in [v.denominator for v in ends + offsets]:
            D0 = D0 * q // math.gcd(D0, q)
        self.D0 = D0
        self.signs = [1 if s > 0 else -1 for s in sigs]
        self.offsets0 = [int(o * D0) for o in offsets]
        self.img0 = [(int(w1 * D0), int(w2 * D0)) for w1, w2 in images]
        self.hole0 = [(int(lo * D0), int(hi * D0)) for lo, hi in hole.pieces]
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
    if not pmap.is_exact or not hole.is_exact and not hole.is_empty:
        return None
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


class _FloatKernel:
    """Python lists of float endpoints; float maps."""

    def __init__(self, pmap: PiecewiseMap, hole: Hole):
        self.tol = pmap.epsilon
        self.doms = pmap.branch_domains_raw()
        self.imgs = [b.image_raw() for b in pmap.branches]
        self.invs = [b.invert_raw for b in pmap.branches]
        self.signs = [b.orientation for b in pmap.branches]
        self.pieces = hole.pieces

    def first_level(self, cap: int) -> _Level:
        lv = _Level()
        for b, (dlo, dhi) in enumerate(self.doms):
            _store(lv, subtract_pieces(dlo, dhi, self.pieces, self.tol), -1, b, cap, 1)
        return lv

    def step(self, cur: _Level, n: int, cap: int) -> _Level:
        """Level n+1 from level n, one branch at a time."""
        tol, pieces = self.tol, self.pieces
        los, his = cur.lo, cur.hi
        nxt = _Level()
        for b in range(len(self.doms)):
            ilo, ihi = self.imgs[b]
            inv = self.invs[b]
            order = range(len(cur)) if self.signs[b] > 0 else range(len(cur) - 1, -1, -1)
            for i in order:
                ylo = max(los[i], ilo)
                yhi = min(his[i], ihi)
                if yhi - ylo <= tol:
                    continue
                a, c = inv(ylo), inv(yhi)
                if a > c:
                    a, c = c, a
                # clamp drift back into the branch domain
                a = max(a, self.doms[b][0])
                c = min(c, self.doms[b][1])
                if c - a <= tol:
                    continue
                _store(nxt, subtract_pieces(a, c, pieces, tol), i, b, cap, n + 1)
        return nxt


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
        m = (1, -k.offset.value, 0, k.slope.value)
    else:
        m = (k.s.value, -k.q.value, -k.r.value, k.p.value)
    scale = math.lcm(*(x.denominator for x in m))
    A, B, C, D = (int(x * scale) for x in m)
    if C * branch.image_raw()[0] + D < 0:
        A, B, C, D = -A, -B, -C, -D
    return A, B, C, D


def _subtract_pairs(lo, hi, pieces) -> list:
    """:func:`subtract_pieces` at tolerance 0 on (num, den) pairs, den > 0;
    ``lo < hi``."""
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
    """Python lists of integer (num, den) endpoint pairs, den > 0; exact maps.

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
        lv = _Level(pairs=True)
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
        nxt = _Level(pairs=True)
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
    """numpy int64 arrays scaled by den(n); exact uniform-affine maps only.

    Valid for a step n -> n+1 while ``u.fits_int64(n + 1)``: every stored
    value and every offset then fits in an int64, and a difference whose
    true value fits is exact in wrapping int64 arithmetic.
    """

    def __init__(self, u: _UniformAffine):
        import numpy as np
        self.np = np
        self.u = u
        self.branch_type = np.min_scalar_type(len(u.signs) - 1)

    def step(self, cur: _Level, n: int, cap: int) -> _Level:
        """Level n+1 from level n, one branch at a time."""
        np, u = self.np, self.u
        if cur.den is None:
            # exact: every level-n endpoint is a multiple of 1/den(n)
            den = u.den(n)
            lo = np.array([a * den // b for a, b in cur.lo], dtype=np.int64)
            hi = np.array([a * den // b for a, b in cur.hi], dtype=np.int64)
        else:
            lo, hi = cur.lo, cur.hi
        scale = u.d ** n
        # gaps of the hole complement at scale den(n+1), sorted and disjoint
        # (Hole merges touching pieces); the outer gaps are unbounded
        ext = np.iinfo(np.int64)
        gap_lo = np.array([ext.min] + [h * scale * u.d for _, h in u.hole0],
                          dtype=np.int64)
        gap_hi = np.array([l * scale * u.d for l, _ in u.hole0] + [ext.max],
                          dtype=np.int64)
        parent_type = np.int32 if len(cur) <= np.iinfo(np.int32).max else np.int64
        batches = []
        total = 0
        for b, sign in enumerate(u.signs):
            ilo, ihi = u.img0[b]
            on = u.offsets0[b] * scale
            ylo = np.maximum(lo, ilo * scale)
            yhi = np.minimum(hi, ihi * scale)
            idx = np.flatnonzero(yhi > ylo)
            if sign > 0:
                xlo, xhi = ylo[idx] - on, yhi[idx] - on
            else:
                idx = idx[::-1]
                xlo, xhi = on - yhi[idx], on - ylo[idx]
            # (xlo, xhi) meets the gaps first .. first + cnt - 1
            first = np.searchsorted(gap_hi, xlo, side="right")
            cnt = np.searchsorted(gap_lo, xhi, side="left") - first
            k = int(cnt.sum())
            total += k
            if total > cap:
                raise _cap_exceeded(cap, n + 1)
            gap = np.repeat(first - (np.cumsum(cnt) - cnt), cnt) + np.arange(k)
            batches.append((
                np.maximum(np.repeat(xlo, cnt), gap_lo[gap]),
                np.minimum(np.repeat(xhi, cnt), gap_hi[gap]),
                np.repeat(idx.astype(parent_type), cnt),
                np.full(k, b, dtype=self.branch_type)))
        cols = [np.concatenate(c) for c in zip(*batches)]
        return _Level(u.den(n + 1), *cols)


def refine(pmap: PiecewiseMap, hole: Hole, n_max: int,
           component_cap: int = DEFAULT_COMPONENT_CAP) -> RefinementTree:
    """Survivor components for levels 1..n_max.

    Raises :class:`ResourceLimitError` before storing a batch that would
    take any level past ``component_cap`` components.  Stops early (with the
    zero-count convention) once a level dies out entirely.

    The int64 kernel takes the step from level n when the map is exact
    uniform-affine, level n has at least ``_ARRAY_MIN_COMPONENTS`` components
    and level n+1 still fits in int64.  Every other step runs on Python
    lists: integer pairs for exact maps, floats for float maps.  The pair and
    int64 kernels build identical trees.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    _require_same_mode(pmap, hole)
    lists = (_PairKernel if pmap.is_exact else _FloatKernel)(pmap, hole)
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


def _check_weight_mode(pmap: PiecewiseMap, weight: "LocallyConstantWeight"):
    # rational weights ride along in either mode; float weights need a float map
    if pmap.is_exact and any(not v.is_exact for v in weight.values):
        from .errors import ModeMismatchError
        raise ModeMismatchError("float weights cannot be used with an exact map")


@dataclass(frozen=True)
class LocallyConstantWeight:
    """One nonnegative weight per branch; products accumulate along itineraries."""

    values: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_scalar(v) for v in self.values))
        for v in self.values:
            if v.value < 0:
                raise InvalidParameterError("weights must be nonnegative")

    @staticmethod
    def constant(c, nbranches: int) -> "LocallyConstantWeight":
        return LocallyConstantWeight(tuple(as_scalar(c) for _ in range(nbranches)))

    @staticmethod
    def ones(nbranches: int) -> "LocallyConstantWeight":
        return LocallyConstantWeight.constant(1, nbranches)

    def raw_values(self) -> list:
        return [v.value for v in self.values]


def pressure_estimate(pmap: PiecewiseMap, weight: LocallyConstantWeight,
                      hole: Hole, n: int,
                      component_cap: int = DEFAULT_COMPONENT_CAP) -> float:
    """(1/n) log of the weighted survivor sum at level n; -inf when it is zero.

    The weight is locally constant, so the supremum over a cylinder is the
    plain product of the branch weights along its itinerary.
    """
    if n < 1:
        raise InvalidParameterError("level must be >= 1")
    if len(weight.values) != len(pmap.branches):
        raise InvalidParameterError("weight needs one value per branch")
    _check_weight_mode(pmap, weight)
    vals = weight.raw_values()
    tree = refine(pmap, hole, n, component_cap)
    if tree.count(n) == 0:
        return float("-inf")
    total = Fraction(0) if pmap.is_exact else 0.0
    prod_cache: dict[tuple, object] = {}
    for word in tree.itineraries(n):
        prod = prod_cache.get(word)
        if prod is None:
            prod = Fraction(1) if pmap.is_exact else 1.0
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
        if b.kind.slope.value != d or b.kind.offset.value != -k:
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
                          weight: LocallyConstantWeight | None = None,
                          component_cap: int = DEFAULT_COMPONENT_CAP
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
    _check_weight_mode(pmap, weight)
    wvals = weight.raw_values()
    ilo, ihi = pmap.codomain.as_raw()
    m_I = ihi - ilo

    fast = _is_full_branch_affine(pmap)
    if fast:
        slopes = [abs(b.kind.slope.value) for b in pmap.branches]
        lambda_n = _log_ratio(max(slopes))
        xi_n = lambda_n - _log_ratio(m_I) / n
        if hole.is_empty:
            # all itineraries exist; extremes come from repeating one branch
            max_w = max(wvals)
            theta_n = float("-inf") if max_w == 0 else _log_ratio(max_w)
            best_ws = max(w * s for w, s in zip(wvals, slopes)) ** n
            A_n = float(best_ws) * float(2 / Fraction(m_I) + 1)
            return ExpansionDiagnostics(n, theta_n, lambda_n, xi_n,
                                        3.0 * float(max_w) ** n, A_n)
        survivors = refine(pmap, hole, n, component_cap)
    else:
        tree0 = refine(pmap, Hole.empty(), n, component_cap)
        if tree0.count(n) == 0:
            raise EmptyPartitionError(f"no level-{n} cylinders")
        table = {}
        for (lo, hi), word in zip(tree0.component_intervals(n), tree0.itineraries(n)):
            table[word] = ((lo, hi), *_sup_deriv_and_image(pmap, word, lo, hi))
        lambda_n = max(_log_ratio(sup) / n for _, sup, _ in table.values())
        xi_n = max(_log_ratio(Fraction(sup) / m_img if isinstance(sup, (int, Fraction))
                              else sup / m_img) / n for _, sup, m_img in table.values())
        survivors = tree0 if hole.is_empty else refine(pmap, hole, n, component_cap)

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
    if not pmap.is_exact or _is_standard_d_adic(pmap) != 2:
        return None
    if not hole.is_exact or len(hole.pieces) != 1:
        return None
    lo, hi = hole.pieces[0]
    if hi != 1 or not (Fraction(1, 2) < lo < 1):
        return None
    return lo


def compare_engines(pmap: PiecewiseMap, hole: Hole, n: int,
                    component_cap: int = DEFAULT_COMPONENT_CAP) -> EngineComparison:
    """Run every applicable engine and report absolute differences.

    Inapplicable engines are reported as absent, never as errors.
    """
    tree = refine(pmap, hole, n, component_cap)
    oracle_h = entropy_estimate(tree, n)
    kn = None
    a = left_hole_parameter(pmap, hole)
    if a is not None:
        from .kneading import entropy_left_hole
        kn = entropy_left_hole(Scalar.exact(a)).root.entropy
    mk = None
    if pmap.is_exact and (hole.is_exact or hole.is_empty):
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
