"""Exact Markov refinements, transition matrices, and leading-eigenvalue
Jordan structure for holes with finite boundary orbits.

When every branch endpoint and hole endpoint has a finite forward orbit, the
orbit points cut the interval into states on which the map is Markov: each
state maps under a single branch onto an exact union of states and escape
pieces.  The orbit points are closed by a worklist that inserts each new
point into the sorted cuts once and queues only its own image; the closure
is refused as soon as its states pass the characteristic-polynomial cap
(400), the one size limit of the engine, or its points pass a fixed bit
budget.  The transition matrix is 0/1 over the surviving states; a state's
image covers one contiguous run of states, read from one dict of
breakpoints.  Its characteristic polynomial x^k q (q(0) != 0) is computed
exactly over the integers (sparse Berkowitz).
rho is bracketed first on P0 = x^min(k,1) q by the Descartes certificate
of its numpy seed, which counts roots with multiplicity: when it certifies,
rho is simple, alg = geo = p = 1, and nothing is decomposed.  Otherwise rho
is bracketed once as a root of the square-free part of the characteristic
polynomial, and the square-free factor that changes sign on that bracket
holds it.  For a multiple rho, the geometric multiplicity and the pole
order are read off the ranks of powers of m(M), m the minimal polynomial of
rho: an integer matrix, so the ranks come from fraction-free elimination.
The factor of rho, the second eigenvalue modulus and m are derived from
the square-free decomposition on first read.  m comes from integers too
(:mod:`.minpoly`): the factor x and the cyclotomic factors are divided out
of the factor of rho, and Musser's degree-set test proves the rest
irreducible.  sympy (an optional extra) is imported only for a factor that
test leaves unproved.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Optional

from .errors import (InvalidParameterError, NotFinitelyMarkovError,
                     ResourceLimitError)
from .mapmodel import Hole, PiecewiseMap
from .polyexact import (CHAR_POLY_SIZE_CAP, _holds_root, berkowitz_char_poly,
                        int_matmul, int_matrix_rank, largest_real_root, poly_mul,
                        seeded_root, square_free_decomposition)

DEFAULT_TOL = 1e-13
# the closure's memory budget: numerator plus denominator bits summed over
# its points
_CLOSURE_BITS = 640_000


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


def refine_markov(pmap: PiecewiseMap, hole: Hole) -> MarkovRefinement:
    """Close the breakpoint set under the map and cut out the states.

    Breakpoints start from the branch-domain, codomain, and hole endpoints,
    and each elementary interval outside the hole and inside a branch domain
    (a state, owned by that branch) queues the images of its ends (through
    its own branch's continuous extension).  A queued image that is a new
    point is inserted into the sorted cuts with ``bisect``.  Hole and branch
    endpoints are initial cuts, so both halves of the interval it splits
    keep that interval's owner, whose end images are already queued: only
    the new point's own image is queued, and only when it splits a state.
    The queue empties at the least forward-closed set in any order, so the
    closure never holds more points than the initial cuts, the initial
    states and the final states together.

    States only grow: :class:`ResourceLimitError` as soon as there are more
    than ``CHAR_POLY_SIZE_CAP`` of them, and :class:`NotFinitelyMarkovError`
    as soon as the points' numerators and denominators pass
    ``_CLOSURE_BITS`` bits in all (an orbit whose heights grow at every
    step, such as that of a map with huge slope denominators, would
    otherwise fill memory before the state cap).
    """
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
    starts = [lo for lo, _ in doms]  # ascending: domains are ordered and disjoint

    def owner(u: Fraction, v: Fraction) -> Optional[int]:
        """Branch owning the elementary interval (u, v); None in the hole
        or outside every branch domain."""
        mid = (u + v) / 2
        if _inside_hole(mid, hole):
            return None
        k = bisect_left(starts, mid) - 1  # the last domain starting below mid
        return k if k >= 0 and mid < doms[k][1] else None

    def check_states():
        if n_states > CHAR_POLY_SIZE_CAP:
            raise ResourceLimitError(
                f"the closure passed {CHAR_POLY_SIZE_CAP} states (the "
                f"characteristic-polynomial cap) after {len(points)} points; "
                "use the cylinder or tower engines")

    cuts = sorted(points)
    owners = []  # of (cuts[i], cuts[i + 1])
    n_states = 0
    for u, v in zip(cuts, cuts[1:]):
        b = owner(u, v)
        owners.append(b)
        if b is not None:
            n_states += 1
            check_states()
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length() for x in cuts)
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
        bits += w.numerator.bit_length() + w.denominator.bit_length()
        if bits > _CLOSURE_BITS:
            raise NotFinitelyMarkovError(
                f"boundary orbit points passed {_CLOSURE_BITS} bits after "
                f"{len(points)} points; use the cylinder or tower engines")
        i = bisect_left(cuts, w)
        b = owners[i - 1]
        cuts.insert(i, w)
        owners.insert(i, b)
        if b is not None:
            n_states += 1
            check_states()
            work.append(pmap.branches[b].apply_raw(w))

    states = tuple((u, v) for u, v, b in zip(cuts, cuts[1:], owners) if b is not None)
    state_branch = tuple(b for b in owners if b is not None)
    return MarkovRefinement(pmap, hole, tuple(cuts), states, state_branch)


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 matrix over surviving states: entry (i, j) says state j is covered
    by the image of state i.  The characteristic polynomial det(xI - M) is
    exact with integer coefficients, ascending order."""

    size: int
    entries: tuple[tuple[int, ...], ...]
    char_poly: tuple[int, ...]

    def column_sums(self) -> list[int]:
        return [sum(r[j] for r in self.entries) for j in range(self.size)]


def transition_matrix(ref: MarkovRefinement) -> TransitionMatrix:
    """0/1 transition matrix of a Markov refinement and its characteristic
    polynomial.

    States are disjoint and sorted, and each lies between two consecutive
    breakpoints, so the states covered by the image ``[w1, w2]`` of a state
    form one contiguous run: the states that start at or after ``w1`` but
    before ``w2``.  One dict, breakpoint -> number of states starting
    before it, gives both ends of the run; an image end that is no
    breakpoint raises :class:`NotFinitelyMarkovError`.
    :func:`refine_markov` refuses a closure with more states than
    ``CHAR_POLY_SIZE_CAP``; a refinement built by hand with more is refused
    here, before any row is built.
    """
    n = len(ref.states)
    if n > CHAR_POLY_SIZE_CAP:
        raise ResourceLimitError(
            f"{n} states exceed the characteristic-polynomial cap {CHAR_POLY_SIZE_CAP}")
    before, i = {}, 0  # breakpoint -> number of states starting before it
    for x in ref.breakpoints:
        while i < n and ref.states[i][0] < x:
            i += 1
        before[x] = i
    rows = []
    for (u, v), b in zip(ref.states, ref.state_branch):
        br = ref.map.branches[b]
        w1, w2 = br.apply_raw(u), br.apply_raw(v)
        if w1 > w2:
            w1, w2 = w2, w1
        first, end = before.get(w1), before.get(w2)
        if first is None or end is None:
            raise NotFinitelyMarkovError(
                f"state ({u}, {v}) maps onto ({w1}, {w2}) which is not "
                "breakpoint-aligned; refinement is not Markov")
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
    ``rho_bracket`` is an exact bracket of rho that holds no other root of
    ``char_poly``, the characteristic polynomial (ascending, integer); it is
    None for the empty matrix.

    ``rho_factor``, ``second_eigenvalue_modulus`` and ``min_poly`` are
    computed from these on first read and cached on the instance, so a
    caller that reads only rho and the Jordan data (a sweep) never
    decomposes the characteristic polynomial when rho is simple.  When
    :func:`spectral_report` needed the decomposition itself, it seeds these
    caches from it.
    """

    rho: float
    algebraic_multiplicity: int
    geometric_multiplicity: int
    pole_order_p: int
    rho_bracket: Optional[tuple[Fraction, Fraction]] = None
    char_poly: tuple[int, ...] = (1,)

    @cached_property
    def _decomposition(self) -> list[tuple[list[int], int]]:
        """Square-free decomposition of ``char_poly``: (factor, power) pairs."""
        return square_free_decomposition(list(self.char_poly))

    @cached_property
    def rho_factor(self) -> Optional[tuple[int, ...]]:
        """The square-free factor of ``char_poly`` (ascending, integer) that
        vanishes in ``rho_bracket``, or None for the empty matrix.  The
        factors are coprime and the bracket holds one root of their
        product, so exactly one of them holds it."""
        if self.rho_bracket is None:
            return None
        lo, hi = self.rho_bracket
        return next(tuple(f) for f, _ in self._decomposition
                    if _holds_root(f, lo, hi))

    @cached_property
    def second_eigenvalue_modulus(self) -> float:
        """Largest eigenvalue modulus after the algebraic_multiplicity
        copies of rho (0.0 when none is left), from the numpy roots of the
        square-free factors counted with their powers: a repeated factor is
        solved once, not as a cluster of nearby roots."""
        import numpy as np
        moduli = []
        for factor, mult in self._decomposition:
            roots = np.roots([float(c) for c in reversed(factor)])
            moduli.extend(float(abs(z)) for z in roots for _ in range(mult))
        moduli.sort(reverse=True)
        # drop the copies of rho (largest in modulus by Perron domination)
        rest = moduli[self.algebraic_multiplicity:]
        return rest[0] if rest else 0.0

    @cached_property
    def min_poly(self) -> Optional[tuple[int, ...]]:
        """Exact minimal polynomial of rho (ascending, integer), or None
        for the empty matrix.

        Computed from ``rho_factor`` by :func:`.minpoly.min_poly_of_root`,
        which loads sympy only when the degree-set certificate cannot prove
        the stripped factor irreducible.
        """
        if self.rho_factor is None:
            return None
        from .minpoly import min_poly_of_root
        return tuple(min_poly_of_root(self.rho_factor, *self.rho_bracket))


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


def spectral_report(M: TransitionMatrix, tol: float = DEFAULT_TOL) -> SpectralReport:
    """Perron root, multiplicities, and pole order of a transition matrix.

    The characteristic polynomial is x^k q with q(0) != 0.  First the
    Descartes certificate of the numpy seed runs on P0 = x^min(k,1) q
    (:func:`seeded_root`), which has the roots of the square-free part.  A
    certified bracket has exactly one root of P0 above its left end, counted
    with multiplicity, and that end is >= 0: rho is simple, so alg = geo =
    p = 1 and nothing is decomposed (the lazy fields of
    :class:`SpectralReport` do it on read).

    Otherwise (a multiple rho, roots the seed pad cannot separate, rho = 0)
    rho is the largest root in [0, inf) of the product of the square-free
    factors, bracketed once with :func:`largest_real_root`.  The bracket
    holds no other root, so one factor changes sign on it: ``rho_factor``,
    whose power is the algebraic multiplicity.  Only a multiple root needs
    its minimal polynomial m (which seeds ``min_poly``) and the ranks of
    powers of the integer matrix m(M) (:func:`_jordan_data`).
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be positive and finite")
    if M.size == 0:
        return SpectralReport(0.0, 0, 0, 0)
    char = list(M.char_poly)
    k = next((i for i, c in enumerate(char) if c), 0)
    seeded = seeded_root(char[max(k - 1, 0):], tol=tol)
    if seeded is not None:
        rho, lo, hi = seeded
        return SpectralReport(rho, 1, 1, 1, (lo, hi), M.char_poly)
    decomp = square_free_decomposition(char)
    square_free = reduce(poly_mul, (f for f, _ in decomp))
    try:
        rho, lo, hi = largest_real_root(square_free, tol=tol)
    except InvalidParameterError:
        raise AssertionError(
            "characteristic polynomial has no root in [0, inf), "
            "impossible for a nonnegative matrix (Perron-Frobenius)") from None
    factor, alg = next((f, m) for f, m in decomp if _holds_root(f, lo, hi))
    if alg == 1:
        # a simple eigenvalue is semisimple: one Jordan block of size one
        report = SpectralReport(rho, 1, 1, 1, (lo, hi), M.char_poly)
    else:
        from .minpoly import min_poly_of_root
        minpoly = tuple(min_poly_of_root(factor, lo, hi))
        geo, p = _jordan_data(M.entries, minpoly, alg)
        report = SpectralReport(rho, alg, geo, p, (lo, hi), M.char_poly)
        report.__dict__["min_poly"] = minpoly
    # seed the cached properties from the work done here
    report.__dict__.update(_decomposition=decomp, rho_factor=tuple(factor))
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
            "states": [[str(lo), str(hi)]
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
                   tol: float = DEFAULT_TOL) -> MarkovEntropy:
    """max{log rho, 0} over the exact Markov refinement; 0 on total escape."""
    ref = refine_markov(pmap, hole)
    M = transition_matrix(ref)
    report = spectral_report(M, tol)
    h = max(math.log(report.rho), 0.0) if report.rho > 0 else 0.0
    return MarkovEntropy(ref, M, report, h)


def to_dot(result: MarkovEntropy) -> str:
    """Transition graph in DOT format; nodes are labeled by their intervals."""
    lines = ["digraph transitions {"]
    for i, (lo, hi) in enumerate(result.refinement.states):
        lines.append(f'  s{i} [label="({str(lo)}, {str(hi)})"];')
    for i, row in enumerate(result.matrix.entries):
        for j, v in enumerate(row):
            if v:
                lines.append(f"  s{i} -> s{j};")
    lines.append("}")
    return "\n".join(lines)
