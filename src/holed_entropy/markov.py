"""Exact Markov refinements, transition matrices, and leading-eigenvalue
Jordan structure for holes with finite boundary orbits.

When every branch endpoint and hole endpoint has a finite forward orbit, the
orbit points cut the interval into states on which the map is Markov: each
state maps under a single branch onto an exact union of states and escape
pieces.  The orbit points are closed by a worklist that inserts each new
point into the sorted cuts once and queues only its own image.  The
transition matrix is 0/1 over the surviving states; a state's image covers
one contiguous run of states, found by bisection.  Its characteristic
polynomial is computed exactly over the integers (sparse Berkowitz).  For a
multiple leading eigenvalue rho, the geometric multiplicity and the pole
order are read off the ranks of powers of m(M), m the minimal polynomial of
rho: an integer matrix, so the ranks come from fraction-free elimination.
m itself comes from integers too (:mod:`.minpoly`): the factor x and the
cyclotomic factors are divided out of the square-free factor that holds
rho, and Musser's degree-set test proves the rest irreducible.  sympy (an
optional extra) is imported only for a factor that test leaves unproved.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .errors import (InvalidParameterError, NotFinitelyMarkovError,
                     ResourceLimitError)
from .mapmodel import Hole, PiecewiseMap
from .polyexact import (CHAR_POLY_SIZE_CAP, berkowitz_char_poly, halve_bracket,
                        int_matmul, int_matrix_rank, largest_real_root,
                        square_free_decomposition)
from .scalar import rational_str

DEFAULT_ORBIT_CAP = 10_000


@dataclass(frozen=True)
class MarkovRefinement:
    """Breakpoints (forward-closed) and the surviving states between them."""

    map: PiecewiseMap
    hole: Hole
    breakpoints: tuple[Fraction, ...]
    states: tuple[tuple[Fraction, Fraction], ...]
    state_branch: tuple[int, ...]  # the single branch whose domain holds each state


def _inside_hole(x: Fraction, hole: Hole) -> bool:
    for lo, hi in hole.pieces:
        if lo <= x <= hi:
            return True
    return False


def refine_markov(pmap: PiecewiseMap, hole: Hole,
                  orbit_cap: int = DEFAULT_ORBIT_CAP) -> MarkovRefinement:
    """Close the breakpoint set under the map and cut out the states.

    Breakpoints start from the branch-domain, codomain, and hole endpoints,
    and each elementary interval outside the hole and inside a branch domain
    queues the images of its ends (through its own branch's continuous
    extension).  A queued image that is a new point is inserted into the
    sorted cuts with ``bisect``.  Hole and branch endpoints are initial
    cuts, so both halves of the interval it splits keep that interval's
    owner, whose end images are already queued: only the new point's own
    image is queued.  The queue empties at the least forward-closed set in
    any order.  Raises :class:`NotFinitelyMarkovError` as soon as the set
    grows past ``orbit_cap`` points.
    """
    if not pmap.is_exact or not (hole.is_exact or hole.is_empty):
        raise NotFinitelyMarkovError(
            "the Markov engine needs exact-mode inputs; "
            "irrational data cannot close a finite refinement")
    ilo, ihi = pmap.codomain.as_raw()
    for lo, hi in hole.pieces:
        if lo < ilo or hi > ihi:
            raise InvalidParameterError("hole piece escapes the codomain closure")
    points = {ilo, ihi}
    doms = pmap.branch_domains_raw()
    for lo, hi in doms:
        points.add(lo)
        points.add(hi)
    for lo, hi in hole.pieces:
        points.add(lo)
        points.add(hi)

    def owner(u: Fraction, v: Fraction) -> Optional[int]:
        """Branch owning the elementary interval (u, v); None in the hole
        or outside every branch domain."""
        mid = (u + v) / 2
        if _inside_hole(mid, hole):
            return None
        for k, (lo, hi) in enumerate(doms):
            if lo < mid < hi:
                return k
        return None

    cuts = sorted(points)
    owners = [owner(u, v) for u, v in zip(cuts, cuts[1:])]  # of (cuts[i], cuts[i + 1])
    work = []  # images not yet inserted
    for u, v, b in zip(cuts, cuts[1:], owners):
        if b is not None:
            br = pmap.branches[b]
            work += (br.apply_raw(u), br.apply_raw(v))
    while work:
        w = work.pop()
        if w in points:
            continue
        points.add(w)
        if len(points) > orbit_cap:
            raise NotFinitelyMarkovError(
                f"boundary orbits did not close within {orbit_cap} points; "
                "use the cylinder or tower engines")
        i = bisect_left(cuts, w)
        b = owners[i - 1]
        cuts.insert(i, w)
        owners.insert(i, b)
        if b is not None:
            work.append(pmap.branches[b].apply_raw(w))

    states = tuple((u, v) for u, v, b in zip(cuts, cuts[1:], owners) if b is not None)
    state_branch = tuple(b for b in owners if b is not None)
    ref = MarkovRefinement(pmap, hole, tuple(cuts), states, state_branch)
    _verify_markov(ref)
    return ref


def _verify_markov(ref: MarkovRefinement):
    """Every state image must decompose exactly into elementary pieces."""
    cutset = set(ref.breakpoints)
    for (u, v), b in zip(ref.states, ref.state_branch):
        br = ref.map.branches[b]
        w1, w2 = br.apply_raw(u), br.apply_raw(v)
        if w1 > w2:
            w1, w2 = w2, w1
        if w1 not in cutset or w2 not in cutset:
            raise NotFinitelyMarkovError(
                f"state ({u}, {v}) maps onto ({w1}, {w2}) which is not "
                "breakpoint-aligned; refinement is not Markov")


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 matrix over surviving states: entry (i, j) says state j is covered
    by the image of state i.  The characteristic polynomial det(xI - M) is
    exact with integer coefficients, ascending order."""

    size: int
    entries: tuple[tuple[int, ...], ...]
    char_poly: tuple[int, ...]

    def row_sums(self) -> list[int]:
        return [sum(r) for r in self.entries]

    def column_sums(self) -> list[int]:
        return [sum(r[j] for r in self.entries) for j in range(self.size)]


def transition_matrix(ref: MarkovRefinement) -> TransitionMatrix:
    """0/1 transition matrix of a Markov refinement and its characteristic
    polynomial.

    States are disjoint and sorted, so the states covered by the image
    ``[w1, w2]`` of a state form one contiguous run: from the first state
    whose left end is at least ``w1`` to the last whose right end is at most
    ``w2``.  Raises :class:`ResourceLimitError` before building any row when
    there are more states than the characteristic-polynomial cap.
    """
    n = len(ref.states)
    if n > CHAR_POLY_SIZE_CAP:
        raise ResourceLimitError(
            f"{n} states exceed the characteristic-polynomial cap {CHAR_POLY_SIZE_CAP}")
    los = [lo for lo, _ in ref.states]
    his = [hi for _, hi in ref.states]
    rows = []
    for (u, v), b in zip(ref.states, ref.state_branch):
        br = ref.map.branches[b]
        w1, w2 = br.apply_raw(u), br.apply_raw(v)
        if w1 > w2:
            w1, w2 = w2, w1
        first, end = bisect_left(los, w1), bisect_right(his, w2)
        row = [0] * n
        row[first:end] = [1] * (end - first)
        rows.append(row)
    char = berkowitz_char_poly(rows)
    return TransitionMatrix(n, tuple(tuple(r) for r in rows), tuple(char))


@dataclass(frozen=True)
class SpectralReport:
    """Perron root with its Jordan data.

    ``pole_order_p`` is the smallest q at which rank((M - rho I)^q)
    stabilizes, i.e. the size of the largest Jordan block of rho.
    ``rho_bracket`` is an exact bracket of rho and ``rho_factor`` (ascending,
    integer) the square-free factor of the characteristic polynomial that
    vanishes on it; both are None for the empty matrix.  ``min_poly`` is computed
    from these two on first read, so a caller that never reads it never
    looks for the irreducible factor of rho.
    """

    rho: float
    algebraic_multiplicity: int
    geometric_multiplicity: int
    pole_order_p: int
    second_eigenvalue_modulus: float
    rho_bracket: Optional[tuple[Fraction, Fraction]] = None
    rho_factor: Optional[tuple[int, ...]] = None

    @cached_property
    def min_poly(self) -> Optional[tuple[int, ...]]:
        """Exact minimal polynomial of rho (ascending, integer), or None
        for the empty matrix.

        Computed on first read from ``rho_factor`` and cached on the
        instance, by :func:`.minpoly.min_poly_of_root`, which loads sympy
        only when the degree-set certificate cannot prove the stripped
        factor irreducible.
        """
        if self.rho_factor is None:
            return None
        from .minpoly import min_poly_of_root
        return tuple(min_poly_of_root(self.rho_factor, *self.rho_bracket))


def _second_modulus(decomp, alg: int) -> float:
    """Largest eigenvalue modulus after alg copies of rho, from the roots of
    the square-free factors counted with their multiplicities."""
    import numpy as np
    moduli = []
    for factor, mult in decomp:
        roots = np.roots([float(c) for c in reversed(factor)])
        moduli.extend(float(abs(z)) for z in roots for _ in range(mult))
    moduli.sort(reverse=True)
    # drop the alg copies of rho (largest in modulus by Perron domination)
    rest = moduli[alg:]
    return rest[0] if rest else 0.0


def _jordan_data(entries, minpoly, alg: int) -> tuple[int, int]:
    """Geometric multiplicity and pole order of rho from integer ranks.

    ``minpoly`` is the minimal polynomial m of rho, of degree d.  Over the
    complex numbers ker m(M)^q is the direct sum of ker (M - lam I)^q over
    the d conjugates lam of rho, and M is rational, so every conjugate has
    the same kernel dimensions: dim ker (M - rho I)^q = (n - rank m(M)^q) / d
    with m(M) an integer matrix.  These dimensions k_q grow strictly until
    the largest Jordan block is used up; the pole order p is the q before
    they stop, k_1 is the geometric multiplicity, and k_p must equal ``alg``.
    """
    n, d = len(entries), len(minpoly) - 1
    G = [[0] * n for _ in range(n)]
    for c in reversed(minpoly):  # Horner: G = m(M)
        G = int_matmul(G, entries)
        for i in range(n):
            G[i][i] += c
    dims = [0]  # dims[q] = dim ker (M - rho I)^q
    power = G
    while True:
        nullity = n - int_matrix_rank(power)
        if nullity % d:
            raise AssertionError(
                f"nullity {nullity} of m(M)^{len(dims)} is not a multiple of deg m = {d}")
        dims.append(nullity // d)
        if dims[-1] == dims[-2]:
            break
        power = int_matmul(power, G)
    p = len(dims) - 2
    if dims[p] != alg:
        raise AssertionError(
            f"generalized eigenspace of dimension {dims[p]} != algebraic multiplicity {alg}")
    return dims[1], p


def _root_above(f, a, g, b) -> bool:
    """Whether the root of f in the bracket a lies above the root of g in
    the bracket b.  f and g are coprime, so the roots differ, and brackets
    that meet are halved until they part."""
    while a[0] <= b[1] and b[0] <= a[1]:
        a, b = halve_bracket(f, *a), halve_bracket(g, *b)
    return a[0] > b[1]


def spectral_report(M: TransitionMatrix, tol: float = 1e-12) -> SpectralReport:
    """Perron root, multiplicities, and pole order of a transition matrix.

    The largest root in [0, inf) of each square-free factor of the
    characteristic polynomial is bracketed with :func:`largest_real_root`,
    and the winner is chosen by comparing those exact brackets, halved until
    they part where they meet, never by their floats.  The algebraic
    multiplicity is the power of the factor that holds it.  Only a multiple
    root needs its minimal polynomial m (which seeds ``min_poly``) and the
    ranks of powers of the integer matrix m(M) (:func:`_jordan_data`).
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be positive and finite")
    if M.size == 0:
        return SpectralReport(0.0, 0, 0, 0, 0.0)
    decomp = square_free_decomposition(list(M.char_poly))
    best = None  # (root float, bracket, factor, multiplicity)
    for factor, mult in decomp:
        try:
            r, lo, hi = largest_real_root(factor, tol=min(tol, 1e-13))
        except InvalidParameterError:
            continue  # no root in [0, inf) in this factor
        if best is None or _root_above(factor, (lo, hi), best[2], best[1]):
            best = (r, (lo, hi), factor, mult)
    if best is None:
        raise AssertionError(
            "characteristic polynomial has no root in [0, inf), "
            "impossible for a nonnegative matrix (Perron-Frobenius)")
    rho, bracket, factor, alg = best
    second = _second_modulus(decomp, alg)
    if alg == 1:
        # a simple eigenvalue is semisimple: one Jordan block of size one
        return SpectralReport(rho, 1, 1, 1, second, bracket, tuple(factor))
    from .minpoly import min_poly_of_root
    minpoly = min_poly_of_root(factor, bracket[0], bracket[1])
    geo, p = _jordan_data(M.entries, minpoly, alg)
    report = SpectralReport(rho, alg, geo, p, second, bracket, tuple(factor))
    report.__dict__["min_poly"] = tuple(minpoly)  # seed the cached property
    return report


@dataclass(frozen=True)
class MarkovEntropy:
    """Entropy with the full spectral context of the open system."""

    refinement: MarkovRefinement
    matrix: TransitionMatrix
    report: SpectralReport
    entropy: float

    @property
    def error_bound(self) -> float:
        """Bound on |entropy - max(log rho, 0)| for the true rho: the exact
        rho bracket mapped through max(log x, 0), each end rounded outward
        by one ulp.  0 when there is no bracket (no surviving states)."""
        if self.report.rho_bracket is None:
            return 0.0
        lo, hi = self.report.rho_bracket
        h_lo = math.nextafter(math.log(lo), -math.inf) if lo > 1 else 0.0
        h_hi = math.nextafter(math.log(hi), math.inf) if hi > 1 else 0.0
        return math.nextafter(h_hi - max(h_lo, 0.0), math.inf)

    def to_json(self) -> dict:
        return {
            "states": [[rational_str(lo), rational_str(hi)]
                       for lo, hi in self.refinement.states],
            "matrix": [list(r) for r in self.matrix.entries],
            "char_poly_coeffs": list(self.matrix.char_poly),
            "rho": self.report.rho,
            "alg_mult": self.report.algebraic_multiplicity,
            "geo_mult": self.report.geometric_multiplicity,
            "p": self.report.pole_order_p,
            "entropy": self.entropy,
            "min_poly": list(self.report.min_poly) if self.report.min_poly else None,
        }


def entropy_markov(pmap: PiecewiseMap, hole: Hole,
                   orbit_cap: int = DEFAULT_ORBIT_CAP,
                   tol: float = 1e-12) -> MarkovEntropy:
    """max{log rho, 0} over the exact Markov refinement; 0 on total escape."""
    ref = refine_markov(pmap, hole, orbit_cap)
    M = transition_matrix(ref)
    report = spectral_report(M, tol)
    h = max(math.log(report.rho), 0.0) if report.rho > 0 else 0.0
    return MarkovEntropy(ref, M, report, h)


def to_dot(result: MarkovEntropy) -> str:
    """Transition graph in DOT format; nodes are labeled by their intervals."""
    lines = ["digraph transitions {"]
    for i, (lo, hi) in enumerate(result.refinement.states):
        lines.append(f'  s{i} [label="({rational_str(lo)}, {rational_str(hi)})"];')
    for i, row in enumerate(result.matrix.entries):
        for j, v in enumerate(row):
            if v:
                lines.append(f"  s{i} -> s{j};")
    lines.append("}")
    return "\n".join(lines)
