"""Exact Markov refinements, transition matrices, and leading-eigenvalue
Jordan structure for holes with finite boundary orbits.

When every branch endpoint and hole endpoint has a finite forward orbit, the
orbit points cut the interval into states on which the map is Markov: each
state maps under a single branch onto an exact union of states and escape
pieces.  Points are reduced integer pairs (num, den) from the closure
through the transition rows, and each branch is an integer 2x2 matrix,
computed once per branch.  The refinement carries the sorted pairs and the
index of each state's left end; its Fraction breakpoints and states are
built only when read, so no Fraction is built before the output.  The orbit
points are closed by a worklist: a new point takes the owner of the
initial interval that holds it and queues only its own image, and the
points are sorted once at the end.  The closure is refused as soon as its
states pass the characteristic-polynomial cap (400), the one size limit of
the engine, or its points pass a fixed bit budget.  The transition matrix
is 0/1 over the surviving states; a state's image, mapped through the same
matrices, covers one contiguous run of states, read from one dict keyed by
breakpoint pairs, and the matrix is kept as these runs.

The entropy path (:func:`entropy_markov`) reads rho off the strongly
connected classes of the matrix (:mod:`.perron`): a single state has
radius 1 with a loop and 0 without, and a larger class gets a certified
Collatz-Wielandt bracket, min (A v)_i / v_i <= rho(A) <= max (A v)_i / v_i
for any v > 0, from a float Perron vector scaled to integers and exact
integer products.
When one class's bracket lies strictly above every other class's, rho is
simple, alg = geo = p = 1, and no characteristic polynomial is built.
Every other case (tied classes, such as the [3/4, 5/6] double pole, a
bracket wider than the tolerance, a float vector that is not positive)
falls back to the characteristic-polynomial path, which
:func:`spectrum_markov` (the ``spectrum`` command) always takes.

The characteristic polynomial x^k q (q(0) != 0) is built on first read,
from Newton's identities on the traces of M, M^2, ..., M^n, float64
products that are exact: their entries are sums of nonnegative integers, so
a product whose largest entry lies below 2**53 has no rounded partial sum.
Once an entry reaches 2**53 (a large matrix, or a large rho), Berkowitz over
the nonzero entries computes it instead.  rho is bracketed first on
P0 = x^min(k,1) q by the Descartes certificate of its Newton seed, which
counts roots with multiplicity: when it certifies, rho is simple,
alg = geo = p = 1, and nothing is decomposed.  The seed is float Newton
from above Fujiwara's root bound: every eigenvalue has modulus at most rho,
so by Gauss-Lucas P0, P0' and P0'' are positive on (rho, inf) and the
iterates decrease to rho.  Otherwise rho is bracketed
once as a root of the square-free part of the characteristic polynomial,
and the square-free factor that changes sign on that bracket holds it.  For
a multiple rho, the geometric multiplicity and the pole order are read off
the ranks of powers of m(M), m the minimal polynomial of rho: an integer
matrix, so the ranks come from fraction-free elimination.  The factor of
rho, the second eigenvalue modulus and m are derived from the square-free
decomposition on first read; when q is square-free modulo a prime, the
decomposition is read off k without being run.  m comes from integers too
(:mod:`.minpoly`): the factor x and the cyclotomic factors are divided out
of the factor of rho, and Musser's degree-set test proves the rest
irreducible.  sympy (an optional extra) is imported only for a factor that
test leaves unproved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Optional

from .errors import (InvalidParameterError, NotFinitelyMarkovError,
                     ResourceLimitError)
from .mapmodel import Hole, PiecewiseMap, _int_pair
from .polyexact import (CHAR_POLY_SIZE_CAP, _holds_root, berkowitz_char_poly,
                        check_tol, int_matmul, int_matrix_rank, largest_real_root,
                        log_bracket, poly_mul, poly_trim, seeded_root,
                        square_free_decomposition)

DEFAULT_TOL = 1e-13
# the prime of the square-free certificate of SpectralReport._decomposition
_SQUARE_FREE_PRIME = 2 ** 31 - 1
# the closure's memory budget: numerator plus denominator bits summed over
# its points
_CLOSURE_BITS = 640_000


@dataclass(frozen=True)
class MarkovRefinement:
    """Breakpoints (forward-closed) and the surviving states between them.

    ``pairs`` holds the breakpoints as reduced integer pairs (num, den),
    den > 0, in increasing order; state i is the interval from
    ``pairs[state_start[i]]`` to the next breakpoint.  ``breakpoints`` and
    ``states`` are the same points as Fractions, built on first read.
    """

    map: PiecewiseMap
    hole: Hole
    pairs: tuple[tuple[int, int], ...]
    state_start: tuple[int, ...]  # index in pairs of each state's left end
    state_branch: tuple[int, ...]  # the single branch whose domain holds each state

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self.pairs)

    @cached_property
    def states(self) -> tuple[tuple[Fraction, Fraction], ...]:
        cut = self.breakpoints
        return tuple((cut[i], cut[i + 1]) for i in self.state_start)


def _image(m: tuple[int, int, int, int], n: int, d: int) -> tuple[int, int]:
    """The reduced pair of the branch with integer matrix ``m``
    (:meth:`.Branch.integer_matrix`) at n/d, d > 0."""
    A, B, C, D = m
    p, q = A * n + B * d, C * n + D * d
    g = math.gcd(p, q)
    return p // g, q // g


def _sorted_pairs(points) -> list[tuple[int, int]]:
    """Reduced pairs (num, den), den > 0, in increasing order: distinct
    points are 1/(d d') > 2^-k apart, so floor(x 2^k) orders them."""
    k = 2 * max(d.bit_length() for _, d in points)
    return sorted(points, key=lambda w: (w[0] << k) // w[1])


def _owner(n: int, d: int, pieces, doms) -> Optional[int]:
    """Branch owning the elementary interval that holds n/d (d > 0), None in
    the hole or outside every branch domain.

    n/d is no initial cut (hole and domain ends), so it lies strictly inside
    a hole piece, or a domain, or neither.  ``pieces`` and ``doms`` are the
    sorted (lo, hi) pairs of (num, den) pairs of the hole and the domains.
    """
    for (a, b), (c, e) in pieces:
        if n * b < a * d:  # left of this piece, so of every later one
            break
        if n * e < c * d:
            return None
    lo, hi = 0, len(doms)
    while lo < hi:  # lo ends as the number of domains starting below n/d
        mid = (lo + hi) // 2
        a, b = doms[mid][0]
        if a * d < n * b:
            lo = mid + 1
        else:
            hi = mid
    if lo:
        c, e = doms[lo - 1][1]
        if n * e < c * d:
            return lo - 1
    return None


def refine_markov(pmap: PiecewiseMap, hole: Hole) -> MarkovRefinement:
    """Close the breakpoint set under the map and cut out the states.

    Points are reduced integer pairs (num, den), den > 0, and each branch is
    its integer matrix (:meth:`.Branch.integer_matrix`), so the closure does
    no Fraction arithmetic, and the refinement holds the sorted pairs.
    Breakpoints start from the branch-domain, codomain, and hole
    endpoints, and each elementary interval outside the
    hole and inside a branch domain (a state, owned by that branch) queues
    the images of its ends (through its own branch's continuous extension).
    Hole and branch endpoints are initial cuts, so a queued image that is a
    new point lies strictly inside one initial interval, whose owner it
    takes; both halves of the interval it splits keep that owner, whose end
    images are already queued: only the new point's own image is queued,
    and only when it splits a state.  The queue empties at the least
    forward-closed set in any order, so the closure never holds more points
    than the initial cuts, the initial states and the final states
    together.  The points are sorted once, at the end, by an exact integer
    key.

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
    doms = [(_int_pair(lo), _int_pair(hi)) for lo, hi in pmap.branch_domains_raw()]
    pieces = [(_int_pair(lo), _int_pair(hi)) for lo, hi in hole.pieces]
    cuts = _sorted_pairs({_int_pair(ilo), _int_pair(ihi),
                          *(x for piece in doms + pieces for x in piece)})
    own = dict.fromkeys(cuts)  # point -> owner of the interval right of it

    def check_states():
        if n_states > CHAR_POLY_SIZE_CAP:
            raise ResourceLimitError(
                f"the closure passed {CHAR_POLY_SIZE_CAP} states (the "
                f"characteristic-polynomial cap) after {len(own)} points; "
                "use the cylinder or tower engines")

    n_states = 0
    for u, v in zip(cuts, cuts[1:]):  # the owner of (u, v) is its midpoint's
        b = _owner(u[0] * v[1] + v[0] * u[1], 2 * u[1] * v[1], pieces, doms)
        if b is not None:
            own[u] = b
            n_states += 1
            check_states()
    mats = {b: pmap.branches[b].integer_matrix() for b in set(own.values())
            if b is not None}
    work = []  # images not yet added
    for u, v in zip(cuts, cuts[1:]):
        b = own[u]
        if b is not None:
            work += (_image(mats[b], *u), _image(mats[b], *v))
    bits = sum(n.bit_length() + d.bit_length() for n, d in cuts)
    while work:
        w = work.pop()
        if w in own:
            continue
        n, d = w
        b = own[w] = _owner(n, d, pieces, doms)
        bits += n.bit_length() + d.bit_length()
        if bits > _CLOSURE_BITS:
            raise NotFinitelyMarkovError(
                f"boundary orbit points passed {_CLOSURE_BITS} bits after "
                f"{len(own)} points; use the cylinder or tower engines")
        if b is not None:
            n_states += 1
            check_states()
            work.append(_image(mats[b], n, d))

    points = _sorted_pairs(own)
    owners = [own[w] for w in points]
    state_start = tuple(i for i, b in enumerate(owners) if b is not None)
    state_branch = tuple(owners[i] for i in state_start)
    return MarkovRefinement(pmap, hole, tuple(points), state_start, state_branch)


class TransitionMatrix:
    """0/1 matrix over surviving states: entry (i, j) says state j is covered
    by the image of state i.

    ``runs[i] = (first, end)`` when row i is one run of ones, columns first
    to end - 1, as every row of :func:`transition_matrix` is; None for a
    matrix given by its ``entries``.  ``entries`` (the dense rows) and
    ``char_poly`` (det(xI - M), exact with integer coefficients, ascending)
    are built on first read when they are not given.
    """

    def __init__(self, size: int, entries=None, char_poly=None, runs=None):
        self.size = size
        self.runs = runs
        if entries is not None:
            self.entries = entries
        if char_poly is not None:
            self.char_poly = char_poly

    def __eq__(self, other) -> bool:
        """The same entries: the characteristic polynomial follows."""
        return (isinstance(other, TransitionMatrix) and self.size == other.size
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"TransitionMatrix({self.size}, {self.entries})"

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for first, end in self.runs:
            row = [0] * self.size
            row[first:end] = [1] * (end - first)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def char_poly(self) -> tuple[int, ...]:
        return tuple(_char_poly(self.entries))


def transition_matrix(ref: MarkovRefinement) -> TransitionMatrix:
    """0/1 transition matrix of a Markov refinement, kept as its rows' runs.

    States are disjoint and sorted, and each lies between two consecutive
    breakpoints, so the states covered by the image ``[w1, w2]`` of a state
    form one contiguous run: the states that start at or after ``w1`` but
    before ``w2``.  One dict, breakpoint (num, den) pair -> number of
    states starting before it, gives both ends of the run; the state ends
    are mapped through the branch's integer matrix as reduced pairs, and an
    image end that is no breakpoint raises :class:`NotFinitelyMarkovError`.
    Only the refinement's pairs are read, never its Fraction views.
    :func:`refine_markov` refuses a closure with more states than
    ``CHAR_POLY_SIZE_CAP``; a refinement built by hand with more is refused
    here, before any row is built.
    """
    n = len(ref.state_start)
    if n > CHAR_POLY_SIZE_CAP:
        raise ResourceLimitError(
            f"{n} states exceed the characteristic-polynomial cap {CHAR_POLY_SIZE_CAP}")
    pairs = ref.pairs
    before, i = {}, 0  # breakpoint -> number of states starting before it
    for k, x in enumerate(pairs):
        before[x] = i
        if i < n and ref.state_start[i] == k:
            i += 1
    mats = {b: ref.map.branches[b].integer_matrix() for b in set(ref.state_branch)}
    runs = []
    for k, b in zip(ref.state_start, ref.state_branch):
        m, u, v = mats[b], pairs[k], pairs[k + 1]
        w1, w2 = _image(m, *u), _image(m, *v)
        if w1[0] * w2[1] > w2[0] * w1[1]:
            w1, w2 = w2, w1
        first, end = before.get(w1), before.get(w2)
        if first is None or end is None:
            raise NotFinitelyMarkovError(
                f"state ({Fraction(*u)}, {Fraction(*v)}) maps onto "
                f"({Fraction(*w1)}, {Fraction(*w2)}) "
                "which is not breakpoint-aligned; refinement is not Markov")
        runs.append((first, end))
    return TransitionMatrix(n, runs=tuple(runs))


def _power_traces(rows) -> list[int]:
    """tr(M^k), k = 1, 2, ..., of a 0/1 matrix M, up to k = n or up to the
    last power whose entries all lie below 2**53.

    The powers are float64 products P @ M.  Every entry of M^k is a sum of
    nonnegative integers, so each partial sum is at most the entry: when
    the largest computed entry lies below 2**53, every partial sum was an
    exact integer and the product is exact (by induction from M).  Each
    trace is summed as Python ints, since it may pass 2**53 when no entry
    does.
    """
    if not rows:
        return []
    import numpy as np
    M = np.array(rows, dtype=np.float64)
    P, traces = M, []
    while True:
        traces.append(sum(map(int, P.diagonal().tolist())))
        if len(traces) == len(rows):
            return traces
        P = P @ M
        if P.max() >= 2.0 ** 53:
            return traces


def _char_poly(rows) -> list[int]:
    """det(xI - M), ascending, of an n x n 0/1 matrix M.

    From the n traces t_k = tr(M^k) (:func:`_power_traces`) by Newton's
    identities, k c_k = -(t_k + c_1 t_(k-1) + ... + c_(k-1) t_1) for the
    coefficient c_k of x^(n-k); an inexact division by k raises
    AssertionError.  When a power reaches 2**53 before M^n, Berkowitz
    (:func:`.berkowitz_char_poly`) computes it instead.
    """
    traces = _power_traces(rows)
    if len(traces) < len(rows):
        return berkowitz_char_poly(rows)
    c = [1]
    for k in range(1, len(traces) + 1):
        q, r = divmod(sum(a * t for a, t in zip(c, reversed(traces[:k]))), k)
        if r:
            raise AssertionError(f"Newton's identity at k = {k} is not an integer")
        c.append(-q)
    return c[::-1]


@dataclass(frozen=True)
class SpectralReport:
    """Perron root with its Jordan data.

    ``pole_order_p`` is the smallest q at which rank((M - rho I)^q)
    stabilizes, i.e. the size of the largest Jordan block of rho.
    ``rho_bracket`` is an exact bracket of rho that holds no other root of
    ``char_poly``, the characteristic polynomial (ascending, integer); it is
    None for the empty matrix.  (The class-structure report of the entropy
    path, :class:`_ClassReport`, has a bracket that holds rho only.)

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
        """Square-free decomposition of ``char_poly``: (factor, power) pairs,
        as :func:`.square_free_decomposition` returns them.

        Write the monic ``char_poly`` as x^k q with q(0) != 0.  When gcd(q,
        q') is 1 modulo the prime ``_SQUARE_FREE_PRIME``, q is square-free:
        a repeated factor of the monic q over the integers stays one
        modulo every prime.  The pairs are then read off k.  Otherwise
        (a repeated factor, or a prime dividing the discriminant of q)
        the decomposition runs.
        """
        char = list(self.char_poly)
        k = next((i for i, c in enumerate(char) if c), 0)
        q = char[k:]
        if len(q) > 1 and q[-1] == 1:
            from .minpoly import _gf_gcd
            ell = _SQUARE_FREE_PRIME
            qm = [c % ell for c in q]
            dq = poly_trim([j * c % ell for j, c in enumerate(qm)][1:])
            if len(_gf_gcd(qm, dq, ell)) == 1:
                if k < 2:
                    return [([0] * k + q, 1)]
                return [(q, 1), ([0, 1], k)]
        return square_free_decomposition(char)

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
    Descartes certificate of the Newton seed runs on P0 = x^min(k,1) q
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
    check_tol(tol)
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


class _ClassReport(SpectralReport):
    """The report of a rho that :func:`.perron.perron_bracket` certifies
    simple: alg = geo = p = 1, and ``rho_bracket`` is the Collatz-Wielandt
    bracket.  That bracket holds rho but is not proven free of other roots
    of the characteristic polynomial, so ``char_poly`` and the fields read
    off it come from :func:`spectral_report` on the same matrix, which
    isolates rho on the characteristic polynomial itself; both run on first
    read."""

    def __init__(self, matrix: TransitionMatrix, tol: float, rho: float,
                 lo: float, hi: float):
        # SpectralReport's own __init__ would store a char_poly
        for name, value in (("rho", rho), ("algebraic_multiplicity", 1),
                            ("geometric_multiplicity", 1), ("pole_order_p", 1),
                            ("rho_bracket", (Fraction(lo), Fraction(hi))),
                            ("_matrix", matrix), ("_tol", tol)):
            object.__setattr__(self, name, value)

    @cached_property
    def char_poly(self) -> tuple[int, ...]:
        return self._matrix.char_poly

    @cached_property
    def _exact(self) -> SpectralReport:
        return spectral_report(self._matrix, self._tol)

    @cached_property
    def _decomposition(self) -> list[tuple[list[int], int]]:
        return self._exact._decomposition

    @cached_property
    def rho_factor(self) -> Optional[tuple[int, ...]]:
        return self._exact.rho_factor

    @cached_property
    def min_poly(self) -> Optional[tuple[int, ...]]:
        return self._exact.min_poly


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
        by one ulp (:func:`polyexact.log_bracket`).  0 when there is no
        bracket (no surviving states)."""
        if self.report.rho_bracket is None:
            return 0.0
        lo, hi = self.report.rho_bracket
        h_lo, h_hi = log_bracket(max(lo, 1), hi) if hi > 1 else (0.0, 0.0)
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
    """max{log rho, 0} over the exact Markov refinement; 0 on total escape.

    rho comes from the class structure (:func:`.perron.perron_bracket`)
    when it certifies rho simple; otherwise, and for the empty matrix, from
    :func:`spectral_report`.  ``tol`` is checked before the closure.
    """
    from .perron import perron_bracket
    check_tol(tol)
    ref = refine_markov(pmap, hole)
    M = transition_matrix(ref)
    perron = perron_bracket(M.runs, tol)
    report = (spectral_report(M, tol) if perron is None
              else _ClassReport(M, tol, *perron))
    return _entropy(ref, M, report)


def spectrum_markov(pmap: PiecewiseMap, hole: Hole,
                    tol: float = DEFAULT_TOL) -> MarkovEntropy:
    """:func:`entropy_markov` with rho always from :func:`spectral_report`,
    that is from the characteristic polynomial: the ``spectrum`` command's
    path."""
    check_tol(tol)
    ref = refine_markov(pmap, hole)
    M = transition_matrix(ref)
    return _entropy(ref, M, spectral_report(M, tol))


def _entropy(ref: MarkovRefinement, M: TransitionMatrix,
             report: SpectralReport) -> MarkovEntropy:
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
