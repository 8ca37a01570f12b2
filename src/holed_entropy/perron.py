"""Certified Perron roots of 0/1 matrices kept as row runs, from their
strongly connected classes.

Row i of the matrix is one run of ones, columns first to end - 1, as every
row of a Markov transition matrix is (:func:`.markov.transition_matrix`).
The spectral radius of a nonnegative matrix is the largest radius of its
strongly connected classes, and its characteristic polynomial is the
product of theirs (block triangular form).  A single state has radius 1
with a loop and 0 without.  A larger class gets a Collatz-Wielandt bracket
(Collatz 1942, Wielandt 1950): for its irreducible block A and any v > 0,
min_i (A v)_i / v_i <= rho(A) <= max_i (A v)_i / v_i.  v is a float Perron
vector scaled to integers, and A v is exact, so the bracket is certified
however good the float vector is; a good one makes it a few float spacings
wide.  When one class's bracket lies strictly above every other class's,
the radius is a simple eigenvalue of the whole matrix (Perron-Frobenius),
so its algebraic and geometric multiplicities and its pole order are 1.
numpy is imported only for a class of more than one state.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, chain
from operator import mul
from typing import Optional

# a class's float Perron vectors come from (A + I)^(2^12): three rounds of
# four squarings, normalized after each round
_PERRON_ROUNDS = 3


def classes(runs) -> list[list[int]]:
    """The strongly connected classes, each sorted, of the graph with an
    edge i -> j for first <= j < end, (first, end) = runs[i]: Tarjan's
    algorithm with an explicit stack of (state, next column) frames."""
    n = len(runs)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, found, count = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, runs[root][0])]
        while frames:
            v, j = frames[-1]
            end = runs[v][1]
            while j < end and index[j] >= 0:
                if on_stack[j] and index[j] < low[v]:
                    low[v] = index[j]
                j += 1
            if j < end:  # a tree edge v -> j
                frames[-1] = (v, j + 1)
                index[j] = low[j] = count
                count += 1
                stack.append(j)
                on_stack[j] = True
                frames.append((j, runs[j][0]))
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                k = stack.index(v)
                members = stack[k:]
                del stack[k:]
                for w in members:
                    on_stack[w] = False
                found.append(sorted(members))
    return found


def _round_out(num: int, den: int, up: bool) -> float:
    """The float next to num/den (den > 0) on the side ``up`` names: the
    correctly rounded quotient, moved one step when it lies on the wrong
    side."""
    q = num / den
    a, b = q.as_integer_ratio()
    above = a * den - num * b  # the sign of q - num/den
    if (above < 0) if up else (above > 0):
        q = math.nextafter(q, math.inf if up else -math.inf)
    return q


def _class_bracket(runs, members: list[int]
                   ) -> Optional[tuple[float, float, float]]:
    """Floats (r, lo, hi), lo <= r <= hi and lo <= rho(A) <= hi, for the
    irreducible 0/1 block A of the class ``members`` (sorted, more than one
    state), or None when a float Perron vector is not positive and finite.

    A + I is primitive, so its 2^12-th power, by numpy squaring, is close
    to a multiple of v w^T, v and w the right and left Perron vectors: its
    row and column sums, scaled to integers >= 2^52, stand for them.  After
    a normalization the entries of the next four squarings grow at most
    n^15-fold, n the class size, so they stay finite.  Row i of A is the
    class's states in one run, so (A v)_i is a difference of exact integer
    prefix sums over the sorted members.  The least and greatest (A v)_i /
    v_i are rounded outward to floats, which keeps the bracket exact and
    dyadic.  r is the float nearest the exact quotient w^T A v / w^T v,
    whose error is the product of the errors of v and w, moved into the
    bracket.
    """
    import numpy as np
    spans = [(bisect_left(members, runs[i][0]), bisect_left(members, runs[i][1]))
             for i in members]  # row i of A, as positions in members
    size = len(members)
    B = np.eye(size)
    B.ravel()[[i * size + j for i, (a, b) in enumerate(spans)
               for j in range(a, b)]] += 1.0
    for _ in range(_PERRON_ROUNDS):
        for _ in range(4):
            B = B @ B
        B /= B.max()
    v, w = B.sum(axis=1).tolist(), B.sum(axis=0).tolist()
    # nan fails every comparison, and a product that overflowed is inf
    if not all(x > 0 for x in chain(v, w)):
        return None
    scale_v, scale_w = 2.0 ** 52 / min(v), 2.0 ** 52 / min(w)
    v, w = [x * scale_v for x in v], [x * scale_w for x in w]
    if not (max(v) < math.inf and max(w) < math.inf):
        return None
    v, w = [int(x) for x in v], [int(x) for x in w]
    prefix = [0, *accumulate(v)]
    av = [prefix[b] - prefix[a] for a, b in spans]
    lo = hi = None  # the (A v)_i, v_i pairs of the least and greatest ratio
    for y, x in zip(av, v):
        if lo is None or y * lo[1] < lo[0] * x:
            lo = y, x
        if hi is None or y * hi[1] > hi[0] * x:
            hi = y, x
    lo, hi = _round_out(*lo, up=False), _round_out(*hi, up=True)
    r = sum(map(mul, w, av)) / sum(map(mul, w, v))
    return min(max(r, lo), hi), lo, hi


def perron_bracket(runs, tol: float) -> Optional[tuple[float, float, float]]:
    """Floats (rho, lo, hi) when the classes certify the spectral radius
    simple, lo <= rho <= hi, hi - lo <= ``tol``, and the exact radius in
    [lo, hi]; None for tied classes, a bracket wider than ``tol``, a float
    vector that is not positive and finite, or no rows."""
    if not runs:
        return None
    brackets = []
    for members in classes(runs):
        if len(members) == 1:
            i = members[0]
            r = 1.0 if runs[i][0] <= i < runs[i][1] else 0.0
            brackets.append((r, r, r))
            continue
        bracket = _class_bracket(runs, members)
        if bracket is None:
            return None
        brackets.append(bracket)
    brackets.sort(key=lambda b: b[2])
    rho, lo, hi = brackets[-1]
    if hi - lo > tol or (len(brackets) > 1 and brackets[-2][2] >= lo):
        return None
    return rho, lo, hi
