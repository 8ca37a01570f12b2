import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holed_entropy import (EmptyPartitionError, Hole, InvalidParameterError,
                           LocallyConstantWeight, ResourceLimitError, build_d_adic,
                           build_scaled_farey, compare_engines, entropy_estimate,
                           expansion_diagnostics, export_level_counts,
                           pressure_estimate, refine)
from holed_entropy import cylinders
from holed_entropy import mapmodel
from holed_entropy.mapmodel import (Affine, IntervalOpen, map_from_config,
                                    subtract_pieces)
from holed_entropy.regularity import left_hole_parameter


def ex(x):
    return Fraction(x)


def H(*pieces):
    return Hole([(ex(lo), ex(hi)) for lo, hi in pieces])


RIGHT_HOLE = H((Fraction(3, 4), Fraction(1)))


# -- independent word oracle --------------------------------------------------
# The hole [3/4, 1] kills exactly the itineraries containing the factor "11":
# a point and its image both land in (1/2, 1) only by entering [3/4, 1).

def words_without_11(n):
    return [w for w in product("01", repeat=n) if "11" not in "".join(w)]


def count_without_11(n):
    # DP over the suffix symbol; cross-checked against raw enumeration below
    ends0, ends1 = 1, 1
    for _ in range(n - 1):
        ends0, ends1 = ends0 + ends1, ends0
    return ends0 + ends1


def test_word_oracle_dp_matches_enumeration():
    for n in range(1, 15):
        assert count_without_11(n) == len(words_without_11(n))


FIB_COUNTS = [count_without_11(n) for n in range(1, 25)]


def test_oracle_fibonacci_values_frozen():
    assert FIB_COUNTS[:6] == [2, 3, 5, 8, 13, 21]
    assert FIB_COUNTS[23] == 121393


# -- refinement counts --------------------------------------------------------

def test_counts_match_word_oracle():
    tree = refine(build_d_adic(2), RIGHT_HOLE, 16)
    assert tree.counts == FIB_COUNTS[:16]


def test_itineraries_match_word_oracle():
    tree = refine(build_d_adic(2), RIGHT_HOLE, 10)
    for n in (3, 7, 10):
        got = sorted(tree.itineraries(n))
        want = sorted(tuple(int(c) for c in w) for w in words_without_11(n))
        assert got == want


def test_full_shift_counts():
    tree = refine(build_d_adic(2), Hole.empty(), 10)
    assert tree.counts == [2 ** n for n in range(1, 11)]


def test_total_escape():
    tree = refine(build_d_adic(2), H((Fraction(0), Fraction(1))), 5)
    assert tree.count(1) == 0
    assert tree.count(5) == 0
    assert entropy_estimate(tree, 3) == 0.0


def test_interior_hole_level1_components():
    tree = refine(build_d_adic(2), H((Fraction(3, 4), Fraction(5, 6))), 3)
    assert tree.count(1) == 3
    assert tree.component_intervals(1) == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(5, 6), Fraction(1))]


# -- the two replay kernels ----------------------------------------------------
# refine stores each level's runs only; a read replays the endpoints from
# level 1, on pair lists or on int64 arrays.

@contextmanager
def only_kernel(name):
    """Reads replay on the array kernel at every step they can ("int64"),
    whether or not numpy is loaded yet, or at none ("generic": every step
    runs on the pair lists).  Array levels are int64 numerators over a
    shared den when every branch is affine, int64 (num, den) pairs
    otherwise."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders, "_ARRAY_MIN_COMPONENTS",
                   1 if name == "int64" else math.inf)
        mp.setattr(cylinders, "_numpy_loaded", lambda: name == "int64")
        yield


def replay(tree, n):
    """Level n's intervals as ``tree.component_intervals(n)`` reads them,
    and per replayed level its form: ``(False, None)`` on pair lists,
    ``(True, den)`` on int64 arrays, ``den`` the shared den or None for
    int64 pairs.  Level 1, the window ends, is on pair lists."""
    forms = [(False, None)]
    step, pull = cylinders._ArrayKernel.step, cylinders._PairKernel.pull

    def array_step(self, *args):
        out = step(self, *args)
        forms.append((True, out[2]))
        return out

    def pair_pull(self, *args):
        forms.append((False, None))
        return pull(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders._ArrayKernel, "step", array_step)
        mp.setattr(cylinders._PairKernel, "pull", pair_pull)
        intervals = tree.component_intervals(n)
    return intervals, forms


def read_forms(tree, kernel=None):
    """The forms (see ``replay``) of a read of the tree's deepest level, on
    ``kernel`` when it is given."""
    if kernel is None:
        return replay(tree, tree.depth)[1]
    with only_kernel(kernel):
        return replay(tree, tree.depth)[1]


def int64_levels(tree, kernel=None):
    """Per level, whether a read of the deepest level stores it in an int64
    form (shared den or pairs)."""
    return [int64 for int64, _ in read_forms(tree, kernel)]


def branch_components(tree, n, branch):
    """How many of level n's components one branch pulled back."""
    runs = tree._levels[n - 1].runs
    return sum(e - s for (b, *_), (s, e) in zip(tree._kernel.windows, runs) if b == branch)


def assert_same_reads(tree):
    """Every level reads the same on both kernels, and a read of level n
    stores levels 1..n in the forms that a read of the deepest level does
    (refine has one path; only reads depend on the kernel)."""
    deepest = int64_levels(tree, "int64")
    for n in range(1, tree.depth + 1):
        reads = []
        for name in ("int64", "generic"):
            with only_kernel(name):
                got, forms = replay(tree, n)
            reads.append(got)
            want = deepest[:n] if name == "int64" else [False] * n
            assert [int64 for int64, _ in forms] == want
        assert reads[0] == reads[1]


def test_generic_path_agrees_with_scaled_path():
    m = build_d_adic(2)
    for hole in (RIGHT_HOLE, H((Fraction(3, 4), Fraction(5, 6)))):
        tree = refine(m, hole, 12)
        assert int64_levels(tree, "int64") == [False] + [True] * 11
        assert not any(int64_levels(tree, "generic"))
        assert_same_reads(tree)


@st.composite
def exact_holes(draw, min_pieces=1, max_pieces=3):
    pieces = []
    for _ in range(draw(st.integers(min_pieces, max_pieces))):
        q = draw(st.integers(1, 64))
        lo = draw(st.integers(0, q))
        hi = draw(st.integers(lo, q))
        pieces.append((Fraction(lo, q), Fraction(hi, q)))
    return H(*pieces)


@settings(max_examples=25, deadline=None)
@given(hole=exact_holes(), d=st.sampled_from([2, 3]))
def test_kernels_agree_on_random_exact_holes(hole, d):
    depth = 9 if d == 2 else 6
    tree = refine(build_d_adic(d), hole, depth)
    assert all(int64_levels(tree, "int64")[1:])
    assert_same_reads(tree)


TENT = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "1/2"], "kind": "affine", "coeffs": ["2", "0"]},
    {"domain": ["1/2", "1"], "kind": "affine", "coeffs": ["-2", "2"]}]})[0]


def test_kernels_agree_on_orientation_reversing_map():
    for hole in (Hole.empty(), H((Fraction(3, 5), Fraction(7, 10))),
                 H((Fraction(1, 8), Fraction(1, 6)), (Fraction(5, 6), Fraction(1)))):
        tree = refine(TENT, hole, 10)
        assert all(int64_levels(tree, "int64")[1:])
        assert_same_reads(tree)


def test_int64_kernel_splits_one_pullback_across_a_hole():
    # branch 0 pulls level-1 (1/19, 1/2) back to (1/38, 1/4), which contains
    # the hole: one parent and branch, two children at level 2
    hole = H((Fraction(1, 20), Fraction(1, 19)))
    for m in (build_d_adic(2), TENT):
        tree = refine(m, hole, 8)
        assert all(int64_levels(tree, "int64")[1:])
        branch, parent = tree._levels[1].links(tree._kernel)
        children = Counter(zip(parent, branch))
        assert children[(1, 0)] == 2 and max(children.values()) == 2
        assert_same_reads(tree)


def test_int64_replay_holds_little_beyond_the_new_level():
    # a replay step writes each run straight into the new level's columns,
    # so beyond the level it returns it holds the level it reads (about
    # 0.57x the new one here, dropped once the step is done) and one run's
    # temporaries; full-size temporaries would pass the bound
    import numpy  # noqa: F401  (loaded outside the traced region)
    tree = refine(build_d_adic(2), H((Fraction(13, 16), Fraction(1))), 20)
    arrays = cylinders._ArrayKernel(tree._kernel)
    tracemalloc.start()
    try:
        columns = arrays.columns(*tree._kernel.ends, None, 1)
        for level in tree._levels[1:]:
            columns = arrays.step(*columns, level)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lo, hi, den = columns
    assert den is not None and len(lo) == tree.counts[-1]
    assert peak - retained <= 1.5 * (lo.nbytes + hi.nbytes)


def test_refine_writes_no_large_level_and_loads_no_numpy():
    # in a fresh interpreter: refine counts the [13/16, 1] tree to depth 24
    # (922,111 components at the last level) from the orbits of the window
    # ends.  The only endpoints it writes are its anchor's, which moves up
    # only while levels are small, and it imports no numpy.  The tree keeps
    # a few runs per level: 1000 components' pair endpoints alone would
    # take ~0.24 MB
    probe = ("import sys, tracemalloc\n"
             "from fractions import Fraction\n"
             "from holed_entropy import Hole, build_d_adic, cylinders, refine\n"
             "written = []\n"
             "pull = cylinders._PairKernel.pull\n"
             "def recording_pull(self, level, lo, hi):\n"
             "    written.append(len(level))\n"
             "    return pull(self, level, lo, hi)\n"
             "cylinders._PairKernel.pull = recording_pull\n"
             "tracemalloc.start()\n"
             "tree = refine(build_d_adic(2), Hole([(Fraction(13, 16), 1)]), 24)\n"
             "retained = tracemalloc.get_traced_memory()[0]\n"
             "tracemalloc.stop()\n"
             "assert tree.counts[-1] == 922111, tree.counts\n"
             "assert 'numpy' not in sys.modules\n"
             "assert written and max(written) <= 1000, written\n"
             "assert retained <= 2 ** 15, retained\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# x -> 2x - 1/3 on (1/6, 2/3) and 2x - 4/3 on (2/3, 1): the second image
# (0, 2/3) misses 1, and the offsets have denominator 3
THIRDS = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["1/6", "2/3"], "kind": "affine", "coeffs": ["2", "-1/3"]},
    {"domain": ["2/3", "1"], "kind": "affine", "coeffs": ["2", "-4/3"]}]})[0]

# x -> 2x + 1 on (-1, 0) and 2x - 29/10 on (19/20, 1), on (-1, 1): the
# second inverse (y + 29/10) / 2 shifts by more than the codomain's width
FAR_SHIFT = map_from_config({"codomain": ["-1", "1"], "branches": [
    {"domain": ["-1", "0"], "kind": "affine", "coeffs": ["2", "1"]},
    {"domain": ["19/20", "1"], "kind": "affine", "coeffs": ["2", "-29/10"]}]})[0]


def test_int64_kernel_hands_back_past_two_to_the_63():
    # level 1 of the doubling map with hole (1/4, 1/2) is (0, 1/4), (1/2, 1):
    # den starts at lcm(4, 2, 1) = 4 and doubles, so level n has den
    # 2**(n+1).  The inverses y/2 and (y+1)/2 give growth max(1, 1, 2) = 2,
    # and the step from level n runs while 2**(n+1) * 2 < 2**63: up to
    # n = 60, so level 61 is the last on int64
    m = build_d_adic(2)
    hole = H((Fraction(1, 4), Fraction(1, 2)))
    tree = refine(m, hole, 64)
    forms = read_forms(tree, "int64")
    assert [int64 for int64, _ in forms] == [False] + [True] * 60 + [False] * 3
    assert forms[60][1] == 2 ** 62
    assert_same_reads(tree)
    assert tree.component_intervals(64)[0][1] == Fraction(1, 2 ** 65)
    # the inverse matrices (3, 1, 0, 6) and (3, 4, 0, 6) of THIRDS reduce
    # by gcd 3 to (y + 1/3) / 2 and (y + 4/3) / 2: den starts at
    # lcm(6, 3) = 6 and doubles per level.  Unreduced, den would be 6**n
    # at level n and level 24 the last on int64
    hole = H((Fraction(5, 6), Fraction(1)))
    tree = refine(THIRDS, hole, 30)
    forms = read_forms(tree, "int64")
    assert [int64 for int64, _ in forms] == [False] + [True] * 29
    assert forms[29][1] == 6 * 2 ** 29
    assert_same_reads(tree)
    # FAR_SHIFT has r = 1, delta = 2 and |beta| = 29/10, so growth is 29/10;
    # den starts at lcm(20, 3, 10) = 60, level n has den 30 * 2**n, and the
    # step from level n runs while 87 * 2**n < 2**63: up to n = 56.  Both
    # branches pull a component back at every level, so a guard without
    # |beta| would write beta den past int64 in the step from level 57
    hole = H((Fraction(-1, 3), Fraction(19, 20)))
    tree = refine(FAR_SHIFT, hole, 64)
    assert int64_levels(tree, "int64") == [False] + [True] * 56 + [False] * 7
    assert all(lv.links(tree._kernel)[0] == [0, 1] for lv in tree._levels)
    assert_same_reads(tree)


def test_int64_levels_return_python_values():
    import numpy  # noqa: F401  (array steps start at 10^3 components)
    m = build_d_adic(2)
    tree = refine(m, RIGHT_HOLE, 16)   # level 15 has 1597 components
    assert int64_levels(tree)[-1]
    for lo, hi in tree.component_intervals(16):
        assert type(lo) is Fraction and type(hi) is Fraction
        assert type(lo.numerator) is int and type(lo.denominator) is int
        assert type(hi.numerator) is int and type(hi.denominator) is int
    words = tree.itineraries(16)
    assert all(type(b) is int for w in words for b in w)
    for cyl in tree.cylinders(16)[:50]:
        for c in cyl.components:
            assert type(c.lo) is Fraction and type(c.lo.numerator) is int
    w = LocallyConstantWeight((ex(Fraction(2, 3)), ex(Fraction(5, 7))))
    with only_kernel("generic"):
        want = (pressure_estimate(m, w, RIGHT_HOLE, 16),
                expansion_diagnostics(m, 16, RIGHT_HOLE, w))
    assert (pressure_estimate(m, w, RIGHT_HOLE, 16),
            expansion_diagnostics(m, 16, RIGHT_HOLE, w)) == want


def reference_refine(pmap, hole, depth):
    """Fraction refinement from the definition: level k+1 pulls every level-k
    component back through each branch (clipped to the branch image) and
    removes the hole.  Returns per level a list of (lo, hi, itinerary,
    parent), ``parent`` the index of the level-k component pulled back (-1
    on level 1)."""
    level = [(lo, hi, (b,), -1) for b, (dlo, dhi) in enumerate(pmap.branch_domains_raw())
             for lo, hi in subtract_pieces(dlo, dhi, hole.pieces)]
    levels = [level]
    while len(levels) < depth and level:
        level = []
        for b, br in enumerate(pmap.branches):
            ilo, ihi = br.image_raw()
            parents = list(enumerate(levels[-1]))[::br.orientation]
            for i, (lo, hi, word, _) in parents:
                ylo, yhi = max(lo, ilo), min(hi, ihi)
                if ylo < yhi:
                    a, c = sorted((br.invert_raw(ylo), br.invert_raw(yhi)))
                    level += [(x, y, (b,) + word, i)
                              for x, y in subtract_pieces(a, c, hole.pieces)]
        levels.append(level)
    return levels


# x -> 5x/2 on (0, 2/5), 2 - 5x/2 on (2/5, 4/5), 5x/2 - 5/3 on (4/5, 1): a
# non-integer slope and offsets with different denominators, and an image
# (1/3, 5/6) inside the codomain
AFFINE_5_2 = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "2/5"], "kind": "affine", "coeffs": ["5/2", "0"]},
    {"domain": ["2/5", "4/5"], "kind": "affine", "coeffs": ["-5/2", "2"]},
    {"domain": ["4/5", "1"], "kind": "affine", "coeffs": ["5/2", "-5/3"]}]})[0]

# x -> 3x/(x+1) on (0, 2/5) and 2 - 2x on (1/2, 1): the branch domains
# leave the gap [2/5, 1/2], and the first image (0, 6/7) misses 1
GAP_MAP = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "2/5"], "kind": "moebius", "coeffs": ["3", "0", "1", "1"]},
    {"domain": ["1/2", "1"], "kind": "affine", "coeffs": ["-2", "2"]}]})[0]

# x -> 2x on (0, 1/2) and (2 - x)/(4x) on (1/2, 1): a decreasing Moebius
# branch whose image (1/4, 3/4) reaches neither end of the codomain
DECREASING_MOEBIUS = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "1/2"], "kind": "affine", "coeffs": ["2", "0"]},
    {"domain": ["1/2", "1"], "kind": "moebius", "coeffs": ["-1", "2", "4", "0"]}]})[0]

farey_parameters = st.integers(1, 64).flatmap(
    lambda q: st.integers(1, q).map(lambda p: Fraction(p, q)))
exact_maps = st.one_of(farey_parameters.map(lambda a: build_scaled_farey(ex(a))),
                       st.sampled_from([TENT, AFFINE_5_2, GAP_MAP, DECREASING_MOEBIUS]))


@settings(max_examples=40, deadline=None)
@given(pmap=exact_maps, hole=exact_holes(min_pieces=0), depth=st.integers(1, 8))
# components ending at the image end 5/6 of the third branch clip to nothing
@example(pmap=AFFINE_5_2, hole=H((Fraction(5, 6), Fraction(1))), depth=4)
# zero-width pieces: 2/5 touches the end of the first window, 3/4 splits the
# second branch into two windows that meet there
@example(pmap=GAP_MAP, hole=H((Fraction(2, 5), Fraction(2, 5)),
                              (Fraction(3, 4), Fraction(3, 4))), depth=6)
def test_pair_kernel_matches_fraction_reference(pmap, hole, depth):
    tree = refine(pmap, hole, depth)
    want = reference_refine(pmap, hole, depth)
    assert tree.depth == len(want)
    for n, level in enumerate(want, 1):
        with only_kernel("generic"):
            got = tree.component_intervals(n)
        assert got == [(lo, hi) for lo, hi, _, _ in level]
        assert tree.itineraries(n) == [word for _, _, word, _ in level]
        # sorted and disjoint, which the kernels' run search relies on
        assert all(lo < hi for lo, hi in got)
        assert all(a[1] <= b[0] for a, b in zip(got, got[1:]))


def test_pair_levels_return_python_values():
    farey = build_scaled_farey(ex(Fraction(4, 5)))
    for pmap, hole in ((farey, H((Fraction(1, 3), Fraction(3, 8)))),
                       (AFFINE_5_2, Hole.empty()), (build_d_adic(2), RIGHT_HOLE)):
        tree = refine(pmap, hole, 7)
        for n in range(1, 8):
            intervals, forms = replay(tree, n)
            assert all(den is None for _, den in forms)
            for lo, hi in intervals:
                assert type(lo) is Fraction and type(hi) is Fraction
                assert type(lo.numerator) is int and type(lo.denominator) is int
                assert type(hi.numerator) is int and type(hi.denominator) is int


def negated_farey(a):
    """x -> -F(-x) on (-1, 0) for the scaled Farey map F: numerators < 0."""
    a = str(a)
    return map_from_config({"codomain": ["-1", "0"], "branches": [
        {"domain": ["-1", "-1/2"], "kind": "moebius", "coeffs": [a, a, "1", "0"]},
        {"domain": ["-1/2", "0"], "kind": "moebius", "coeffs": [a, "0", "1", "1"]}]})[0]


def negated(hole):
    return Hole([(-hi, -lo) for lo, hi in hole.pieces])


# x -> 3x on (0, 1/3) and 3/2 - 3x/2 on (1/3, 1): two slope magnitudes
TWO_SLOPES = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "1/3"], "kind": "affine", "coeffs": ["3", "0"]},
    {"domain": ["1/3", "1"], "kind": "affine", "coeffs": ["-3/2", "3/2"]}]})[0]

FAREY_AS = [Fraction(1, 2), Fraction(3, 5), Fraction(4, 5), Fraction(1)]

# every map kind the run search meets: increasing and decreasing, affine
# and Moebius branches, domain gaps, images inside the codomain, negative
# endpoints
REFERENCE_MAPS = [build_d_adic(2), build_d_adic(3), TENT, AFFINE_5_2, GAP_MAP,
                  DECREASING_MOEBIUS, THIRDS, TWO_SLOPES,
                  *(build_scaled_farey(a) for a in (Fraction(1), Fraction(4, 5), Fraction(3, 5))),
                  negated_farey(Fraction(4, 5))]


@st.composite
def maps_and_holes(draw):
    """A map and 0-3 hole pieces in its codomain.  A piece starts on a
    branch domain end or on a grid point, and may be a point [a, a]; both
    make windows that share an end."""
    pmap = draw(st.sampled_from(REFERENCE_MAPS))
    lo, hi = pmap.codomain.as_raw()
    ends = sorted({x for dom in pmap.branch_domains_raw() for x in dom})
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(1, 32))
        a = draw(st.sampled_from(ends) | st.integers(0, q).map(
            lambda k: lo + (hi - lo) * Fraction(k, q)))
        width = draw(st.just(0) | st.integers(0, q))
        pieces.append((a, min(hi, a + (hi - lo) * Fraction(width, 2 * q))))
    return pmap, Hole(pieces)


def reference_cylinders(level):
    groups = {}
    for lo, hi, word, _ in level:
        groups.setdefault(word, []).append(IntervalOpen(lo, hi))
    return [cylinders.Cylinder(w, tuple(cs)) for w, cs in groups.items()]


@settings(max_examples=50, deadline=None)
@given(case=maps_and_holes(), depth=st.integers(1, 12))
# a point hole at 1/4 splits the first window in two that share the end 1/4,
# whose image 1/2 is the end shared by both branch domains
@example(case=(build_d_adic(2), H((Fraction(1, 4), Fraction(1, 4)))), depth=10)
# a hole touching the branch boundary 1/2 from the right, and a decreasing
# Moebius branch whose image ends inside the codomain
@example(case=(DECREASING_MOEBIUS, H((Fraction(1, 2), Fraction(5, 8)))), depth=10)
@example(case=(TENT, H((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1)))),
         depth=12)
def test_run_search_matches_fraction_reference(case, depth):
    # the runs refine finds by counting along orbits, and every read of
    # them, equal the Fraction refinement from the definition
    pmap, hole = case
    tree = refine(pmap, hole, depth)
    # the reference is slow: stop it before a level of 1500 components
    depth = next((n for n, c in enumerate(tree.counts, 1) if c > 1500), tree.depth + 1) - 1
    want = reference_refine(pmap, hole, max(depth, 1))
    tree = refine(pmap, hole, max(depth, 1))
    assert tree.counts == [len(level) for level in want]
    windows = tree._kernel.windows
    for n, level in enumerate(want, 1):
        lv = tree._levels[n - 1]
        assert lv.links(tree._kernel) == ([w[0] for _, _, w, _ in level],
                                            [parent for _, _, _, parent in level])
        for (b, wlo, whi, _, _), (s, e), k in zip(windows, lv.runs, lv.starts):
            # window k's run: the parents of the components inside it
            inside = [parent for lo, hi, w, parent in level if w[0] == b
                      and Fraction(*wlo) <= lo and hi <= Fraction(*whi)]
            assert e - s == len(inside)
            if inside and n > 1:
                assert (s, e) == (min(inside), max(inside) + 1)
        assert tree.component_intervals(n) == [(lo, hi) for lo, hi, _, _ in level]
        assert tree.itineraries(n) == [w for _, _, w, _ in level]
        assert tree.cylinders(n) == reference_cylinders(level)



@settings(max_examples=60, deadline=None)
@given(hole=exact_holes(min_pieces=0),
       pmap=st.sampled_from(FAREY_AS).map(lambda a: ("farey", a))
       | st.sampled_from(FAREY_AS).map(lambda a: ("negated farey", a))
       | st.sampled_from([TWO_SLOPES, AFFINE_5_2, TENT, GAP_MAP, DECREASING_MOEBIUS,
                          THIRDS]).map(lambda m: ("map", m)),
       depth=st.integers(2, 11))
# a hole next to the fixed point 0 of the left Farey branch, and one cutting
# both branches of the negated map
@example(hole=H((Fraction(0), Fraction(1, 64))), pmap=("farey", Fraction(4, 5)), depth=11)
@example(hole=H((Fraction(1, 3), Fraction(3, 5))), pmap=("negated farey", Fraction(3, 5)),
         depth=11)
@example(hole=H((Fraction(5, 6), Fraction(1))), pmap=("map", AFFINE_5_2), depth=11)
# the third inverse (2y + 10/3) / 5 needs a 3 in den that no window end has
@example(hole=H(), pmap=("map", AFFINE_5_2), depth=6)
# the window image (1/2, 1) of the second branch: den is 3**n, so the run
# search rounds 1/2 to the grid
@example(hole=H((Fraction(2, 3), Fraction(1))), pmap=("map", TWO_SLOPES), depth=3)
def test_int64_pairs_agree_with_pair_lists(hole, pmap, depth):
    kind, pmap = pmap
    if kind == "farey":
        pmap = build_scaled_farey(pmap)
    elif kind == "negated farey":
        pmap, hole = negated_farey(pmap), negated(hole)
    tree = refine(pmap, hole, depth)
    forms = read_forms(tree, "int64")
    # heights stay below 2^40 on these maps to level 11
    assert [int64 for int64, _ in forms] == [False] + [True] * (tree.depth - 1)
    # a shared den exactly when every branch is affine
    affine = all(isinstance(b.kind, Affine) for b in pmap.branches)
    assert [den is not None for _, den in forms[1:]] == [affine] * (tree.depth - 1)
    assert_same_reads(tree)


@settings(max_examples=30, deadline=None)
@given(hole=exact_holes(max_pieces=2),
       pmap=st.sampled_from([build_d_adic(2), build_d_adic(3), TENT, AFFINE_5_2,
                             build_scaled_farey(Fraction(4, 5))]),
       kernel=st.sampled_from(["int64", "generic"]), depth=st.integers(2, 8))
def test_deep_tree_reads_every_level_as_a_shallow_refine(hole, pmap, kernel, depth):
    # a tree keeps runs only: a deep tree reads a shallower level's
    # endpoints by replaying the runs from level 1, and its itineraries
    # from the runs of every level.  "int64" replays shared-den arrays on
    # the affine maps and int64 pairs on farey 4/5, "generic" pair lists
    deep = refine(pmap, hole, depth)
    assert int64_levels(deep, kernel) == [False] + [kernel == "int64"] * (deep.depth - 1)
    for n in range(1, depth + 1):
        shallow = refine(pmap, hole, n)
        assert int64_levels(shallow, kernel) == int64_levels(deep, kernel)[:n]
        assert deep.count(n) == shallow.count(n)
        # the deep tree replays level n on the same kernel
        with only_kernel(kernel):
            assert deep.component_intervals(n) == shallow.component_intervals(n)
            assert deep.cylinders(n) == shallow.cylinders(n)
        assert deep.itineraries(n) == shallow.itineraries(n)


def test_int64_pairs_hand_back_to_pair_lists_past_int64():
    # inverse matrix entries near 2^20 add ~21 bits per level: level 3 has
    # 43-bit heights, and 43 + 21 bits would pass int64
    farey = build_scaled_farey(Fraction(2 ** 20 - 1, 2 ** 20))
    hole = H((Fraction(1, 3), Fraction(3, 8)))
    tree = refine(farey, hole, 9)
    assert int64_levels(tree, "int64") == [False, True, True] + [False] * 6
    assert_same_reads(tree)
    with only_kernel("int64"):
        for lo, hi in tree.component_intervals(3):
            assert type(lo.numerator) is int and type(hi.denominator) is int
    # the first level of 10^3 components has ~200-bit heights
    tall = refine(farey, Hole.empty(), 11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders, "_numpy_loaded", lambda: True)
        assert tall.counts[-2] >= 1000 and not any(int64_levels(tall))
    # a window end past int64 keeps every step on pair lists, also from a
    # level of small heights: the step could cut a run to that end
    farey = build_scaled_farey(Fraction(4, 5))
    hole = H((Fraction(1, 3), Fraction(2 ** 64 + 1, 3 * 2 ** 64)))
    tree = refine(farey, hole, 6)
    assert not any(int64_levels(tree, "int64"))
    assert_same_reads(tree)
    kernel = cylinders._ArrayKernel(cylinders._PairKernel(farey, hole))
    assert kernel.columns([(1, 8)], [(1, 4)], None, 1) is None


@pytest.mark.parametrize("hole", [Hole.empty(), H((Fraction(1, 3), Fraction(3, 8)))])
def test_component_cap_inside_an_int64_pairs_step(hole):
    farey = build_scaled_farey(Fraction(4, 5))
    tree = refine(farey, hole, 10)
    assert int64_levels(tree, "int64")[-1]
    first = branch_components(tree, 10, 0)
    assert 0 < first < tree.counts[-1]
    cap = (first + tree.counts[-1]) // 2
    pulled = []
    pull = cylinders._PairKernel.pull

    def recording_pull(self, level, lo, hi):
        pulled.append(len(level))
        return pull(self, level, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders._PairKernel, "pull", recording_pull)
        with pytest.raises(ResourceLimitError, match=f"cap {cap} exceeded at level 10$"):
            refine(farey, hole, 10, component_cap=cap)
        # refine raised from the counts of level 10, before writing a run
        # of it: it wrote endpoints only to move its anchor, on levels far
        # smaller than the first branch's share of level 10
        assert pulled and max(pulled) < first
        assert refine(farey, hole, 10, component_cap=tree.counts[-1]).counts == tree.counts


@pytest.mark.parametrize("loaded", [False, True])
def test_array_steps_wait_until_numpy_pays(loaded):
    # farey 4/5 doubles from 1024 components at level 10: to depth 16 a
    # read replays 2^11 + ... + 2^16 < 1.5 * 10^5 components from there,
    # to depth 17 twice that
    farey = build_scaled_farey(Fraction(4, 5))
    doubling = build_d_adic(2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders, "_numpy_loaded", lambda: loaded)
        for pmap, hole, depth, first in ((farey, Hole.empty(), 16, 10),
                                         (farey, Hole.empty(), 17, 10),
                                         (doubling, H((Fraction(13, 16), Fraction(1))), 20, 12)):
            tree = refine(pmap, hole, depth)
            pays = loaded or depth != 16
            assert int64_levels(tree) == [False] * first + [pays] * (depth - first)
            assert tree.counts[first - 1] >= 1000 > tree.counts[first - 2]


def test_component_cap():
    with pytest.raises(ResourceLimitError):
        refine(build_d_adic(2), Hole.empty(), 12, component_cap=100)


def test_component_cap_at_level_one():
    with pytest.raises(ResourceLimitError, match="^component cap 3 exceeded at level 1$"):
        refine(build_d_adic(5), Hole.empty(), 2, component_cap=3)
    assert refine(build_d_adic(5), Hole.empty(), 1, component_cap=5).counts == [5]


def test_negative_component_cap_is_an_input_error():
    # refused before level 1 is built, not reported as a cap exceeded there
    with pytest.raises(InvalidParameterError, match="^component_cap must be >= 0$"):
        refine(build_d_adic(2), Hole.empty(), 3, component_cap=-1)


@pytest.mark.parametrize("hole", [Hole.empty(), H((Fraction(1, 3), Fraction(3, 8)))])
def test_component_cap_on_a_moebius_map(hole):
    farey = build_scaled_farey(ex(Fraction(4, 5)))
    tree = refine(farey, hole, 9)
    assert not any(int64_levels(tree))
    for n in (2, 5, 9):
        cap = tree.count(n) - 1
        with pytest.raises(ResourceLimitError, match=f"cap {cap} exceeded at level {n}$"):
            refine(farey, hole, 9, component_cap=cap)
    assert refine(farey, hole, 9, component_cap=max(tree.counts)).counts == tree.counts


def test_component_cap_boundary():
    # with numpy loaded, levels up to 10 of the full shift come from the
    # pair kernel, levels 11 and 12 from the int64 kernel
    import numpy  # noqa: F401
    tree = refine(build_d_adic(2), Hole.empty(), 9, component_cap=512)
    assert not any(int64_levels(tree))
    with pytest.raises(ResourceLimitError, match="cap 511 exceeded at level 9$"):
        refine(build_d_adic(2), Hole.empty(), 9, component_cap=511)
    tree = refine(build_d_adic(2), Hole.empty(), 12, component_cap=4096)
    assert max(tree.counts) == 4096 and int64_levels(tree)[-1]
    with pytest.raises(ResourceLimitError, match="cap 4095 exceeded at level 12$"):
        refine(build_d_adic(2), Hole.empty(), 12, component_cap=4095)
    tree = refine(build_d_adic(2), RIGHT_HOLE, 18, component_cap=FIB_COUNTS[17])
    assert tree.counts == FIB_COUNTS[:18]
    with pytest.raises(ResourceLimitError, match="at level 18$"):
        refine(build_d_adic(2), RIGHT_HOLE, 18, component_cap=FIB_COUNTS[17] - 1)


@pytest.mark.parametrize("hole", [RIGHT_HOLE,
                                  H((Fraction(1, 8), Fraction(1, 6)),
                                    (Fraction(5, 6), Fraction(1)))])
def test_component_cap_inside_the_second_branch_of_an_int64_step(hole):
    m = build_d_adic(2)
    tree = refine(m, hole, 10)
    assert int64_levels(tree, "int64")[-1]
    first = branch_components(tree, 10, 0)
    assert 0 < first < tree.counts[-1]
    cap = (first + tree.counts[-1]) // 2
    with pytest.raises(ResourceLimitError, match=f"cap {cap} exceeded at level 10$"):
        refine(m, hole, 10, component_cap=cap)
    assert refine(m, hole, 10, component_cap=tree.counts[-1]).counts == tree.counts


def test_count_beyond_depth_requires_extinction():
    from holed_entropy import InvalidParameterError
    tree = refine(build_d_adic(2), Hole.empty(), 4)
    with pytest.raises(InvalidParameterError):
        tree.count(9)


ACCESSORS = ("count", "component_intervals", "itineraries", "cylinders")


def read_level(tree, accessor, n):
    return getattr(tree, accessor)(n)


@pytest.mark.parametrize("accessor", ACCESSORS)
def test_accessors_check_the_level(accessor):
    from holed_entropy import InvalidParameterError
    live = refine(build_d_adic(2), Hole.empty(), 4)
    dead = refine(build_d_adic(2), H((Fraction(0), Fraction(1))), 4)
    assert dead.depth == 1
    for tree, n in ((live, 0), (live, -1), (live, 6), (dead, 0)):
        with pytest.raises(InvalidParameterError):
            read_level(tree, accessor, n)
    # levels past an extinct tree's depth are empty
    for n in (1, 3):
        assert read_level(dead, accessor, n) in (0, [])


def test_cylinder_grouping():
    tree = refine(build_d_adic(2), H((Fraction(3, 4), Fraction(5, 6))), 1)
    cyls = tree.cylinders(1)
    assert len(cyls) == 2  # two itineraries, the right one split in two
    by_word = {c.itinerary: c for c in cyls}
    assert len(by_word[(1,)].components) == 2
    assert by_word[(1,)].hull.as_raw() == (Fraction(1, 2), Fraction(1))


# -- submultiplicativity / monotonicity ---------------------------------------

def _random_rational_hole(rng):
    pieces = []
    for _ in range(rng.randrange(1, 3)):
        lo = Fraction(rng.randrange(0, 30), 32)
        hi = min(Fraction(1), lo + Fraction(rng.randrange(1, 8), 32))
        pieces.append((lo, hi))
    return H(*pieces)


def test_submultiplicative_counts():
    rng = random.Random(5)
    m = build_d_adic(2)
    for _ in range(6):
        hole = _random_rational_hole(rng)
        tree = refine(m, hole, 12)
        for mm in range(1, 7):
            for nn in range(1, 7):
                assert tree.count(mm + nn) <= tree.count(mm) * tree.count(nn)


def test_hole_monotonicity():
    m = build_d_adic(2)
    small = H((Fraction(3, 4), Fraction(7, 8)))
    big = H((Fraction(3, 4), Fraction(15, 16)))
    t_small = refine(m, small, 10)
    t_big = refine(m, big, 10)
    for n in range(1, 11):
        assert t_small.count(n) >= t_big.count(n)


# -- entropy / pressure --------------------------------------------------------

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def test_entropy_estimate_level24_value():
    tree = refine(build_d_adic(2), RIGHT_HOLE, 24)
    h = entropy_estimate(tree, 24)
    assert abs(h - math.log(121393) / 24) < 1e-15
    assert abs(h - LOG_GOLDEN) <= 0.01


def test_entropy_full_shift():
    tree = refine(build_d_adic(2), Hole.empty(), 8)
    for n in range(1, 9):
        assert abs(entropy_estimate(tree, n) - math.log(2)) < 1e-14


def test_pressure_equals_entropy_for_indicator():
    m = build_d_adic(2)
    w = LocallyConstantWeight.ones(2)
    tree = refine(m, RIGHT_HOLE, 6)
    assert abs(pressure_estimate(m, w, RIGHT_HOLE, 6)
               - entropy_estimate(tree, 6)) < 1e-14
    assert abs(pressure_estimate(m, w, RIGHT_HOLE, 6) - math.log(21) / 6) < 1e-14


def test_pressure_scaling_constant_weight():
    m = build_d_adic(2)
    for c in (Fraction(1, 3), Fraction(5, 2)):
        w = LocallyConstantWeight.constant(ex(c), 2)
        for n in (1, 4, 7):
            got = pressure_estimate(m, w, Hole.empty(), n)
            assert abs(got - (math.log(2) + math.log(float(c)))) < 1e-12


def test_pressure_zero_weight():
    m = build_d_adic(2)
    w = LocallyConstantWeight.constant(0, 2)
    assert pressure_estimate(m, w, Hole.empty(), 3) == float("-inf")


def test_pressure_total_escape():
    m = build_d_adic(2)
    w = LocallyConstantWeight.ones(2)
    assert pressure_estimate(m, w, H((Fraction(0), Fraction(1))), 2) == float("-inf")


# -- expansion diagnostics -----------------------------------------------------

def test_doubling_diagnostics_exact_log2():
    m = build_d_adic(2)
    for n in (1, 5, 12, 20):
        d = expansion_diagnostics(m, n)
        assert d.lambda_n == math.log(2)
        assert d.xi_n == math.log(2)


def test_closed_form_diagnostics_refuse_a_level_that_overflows():
    # A_n = 3 * 2**n: the last float below the limit is at n = 1022
    m = build_d_adic(2)
    d = expansion_diagnostics(m, 1022)
    assert all(map(math.isfinite, (d.theta_n, d.lambda_n, d.xi_n, d.a_n, d.A_n)))
    for n in (1023, 1024):
        with pytest.raises(InvalidParameterError, match=f"level n = {n} "):
            expansion_diagnostics(m, n)
    # with weights (3, 1), A_n = 3 * 6**n overflows from n = 396
    w = LocallyConstantWeight((3, 1))
    assert math.isfinite(expansion_diagnostics(m, 395, weight=w).A_n)
    with pytest.raises(InvalidParameterError, match="level n = 700 "):
        expansion_diagnostics(m, 700, weight=w)


def test_theta_zero_for_indicator_with_survivors():
    m = build_d_adic(2)
    d = expansion_diagnostics(m, 1, hole=RIGHT_HOLE)
    assert d.theta_n == 0.0
    d6 = expansion_diagnostics(m, 6, hole=H((Fraction(3, 4), Fraction(5, 6))))
    assert d6.theta_n == 0.0


def test_theta_minus_inf_when_all_escape():
    m = build_d_adic(2)
    d = expansion_diagnostics(m, 1, hole=H((Fraction(0), Fraction(1))))
    assert d.theta_n == float("-inf")


def test_farey_lambda1_log4():
    m = build_scaled_farey(ex(1))
    d = expansion_diagnostics(m, 1)
    assert abs(d.lambda_n - math.log(4)) < 1e-14


def test_lasota_yorke_shape():
    m = build_d_adic(2)
    for n in (3, 6, 10):
        tree = refine(m, RIGHT_HOLE, n)
        max_comp = max(len(c.components) for c in tree.cylinders(n))
        var_bound = 2 * max_comp + 2
        d = expansion_diagnostics(m, n, hole=RIGHT_HOLE)
        assert d.a_n <= 3 + var_bound
        assert d.A_n <= (4 + var_bound) * 2 ** n


def test_xi_dominates_lambda_normalized_by_measure():
    # xi_n >= lambda_n - log(m(I))/n always; equality iff images are full
    full = build_scaled_farey(ex(1))       # both branches cover (0,1)
    part = build_scaled_farey(ex(Fraction(4, 5)))  # images stop at 4/5
    for n in (1, 3, 5):
        d_full = expansion_diagnostics(full, n)
        assert abs(d_full.xi_n - d_full.lambda_n) < 1e-12  # m(I) = 1
        d_part = expansion_diagnostics(part, n)
        assert d_part.xi_n > d_part.lambda_n + 1e-6


def test_diagnostics_paths():
    m = build_d_adic(2)
    from holed_entropy.cylinders import _is_full_branch_affine
    assert _is_full_branch_affine(m)
    assert not _is_full_branch_affine(build_scaled_farey(ex(1)))
    d_fast = expansion_diagnostics(m, 6, hole=RIGHT_HOLE)
    assert d_fast.a_n >= 3.0


def test_empty_partition_error():
    cfg_map = build_scaled_farey(ex(Fraction(2, 5)))
    # the farey map always has nonempty Z_n; simulate emptiness via total hole
    d = expansion_diagnostics(cfg_map, 2)
    assert math.isfinite(d.lambda_n)
    with pytest.raises(EmptyPartitionError):
        # a map whose level-2 unrestricted partition is empty: single branch
        # mapping (0, 1/2) onto (1/2, 1) has no admissible second symbol
        from holed_entropy.mapmodel import Affine, Branch, IntervalOpen, PiecewiseMap
        I = IntervalOpen(ex(0), ex(1))
        b = Branch(IntervalOpen(ex(0), ex(Fraction(1, 2))),
                   Affine(ex(1), ex(Fraction(1, 2))))
        expansion_diagnostics(PiecewiseMap(I, (b,)), 2)


def W(*vals):
    return LocallyConstantWeight(tuple(ex(v) for v in vals))


Q = Fraction

# (map, hole, n, weight) -> (theta_n, lambda_n, xi_n, a_n, A_n), recorded from
# an implementation with a separate loop per case: full-branch affine maps
# without a hole (closed form), other maps without a hole, any map with a hole.
# The farey 4/5 rows at n = 3 and with hole [3/4, 1] were recorded from the
# pair kernel.
DIAG_GOLDEN = [
    (build_d_adic(2), Hole.empty(), 5, W(Q(2, 3), Q(3, 4)),
     (-0.2876820724517808, 0.6931471805599453, 0.6931471805599453, 0.7119140625,
      22.78125)),
    (TENT, Hole.empty(), 4, None,
     (0.0, 0.6931471805599453, 0.6931471805599453, 3.0, 48.0)),
    (build_d_adic(3), Hole.empty(), 3, W(0, 1, 0),
     (0.0, 1.0986122886681098, 1.0986122886681098, 3.0, 81.0)),
    (build_scaled_farey(ex(1)), Hole.empty(), 3, None,
     (0.0, 1.2647466565905874, 1.2647466565905874, 3.0, 133.33333333333334)),
    (build_scaled_farey(ex(Q(4, 5))), Hole.empty(), 4, W(Q(2, 3), Q(3, 4)),
     (-0.2876820724517808, 1.040548487713349, 1.1682548936548462, 0.94921875,
      88.0410101046882)),
    (build_scaled_farey(ex(Q(4, 5))), Hole.empty(), 3, W(Q(2, 3), Q(3, 4)),
     (-0.2876820724517808, 1.0814159284107927, 1.2516911363327896, 1.265625,
      46.87753846153846)),
    (build_scaled_farey(ex(Q(2, 5))), Hole.empty(), 8, None,
     (0.0, -0.46916872531470544, 0.310204400849718, 3.0, 23.945052754223717)),
    (build_d_adic(2), RIGHT_HOLE, 6, W(Q(2, 3), Q(3, 4)),
     (-0.34657359027997264, 0.6931471805599453, 0.6931471805599453, 0.5, 32.0)),
    (TENT, H((Q(1, 8), Q(1, 6)), (Q(5, 6), Q(1))), 5, W(0, 1),
     (0.0, 0.6931471805599453, 0.6931471805599453, 4.0, 128.0)),
    (build_d_adic(3), H((Q(1, 3), Q(2, 5))), 4, None,
     (0.0, 1.0986122886681098, 1.0986122886681098, 4.0, 324.0)),
    (build_scaled_farey(ex(Q(4, 5))), H((Q(3, 4), Q(5, 6))), 5, W(Q(2, 3), Q(3, 4)),
     (-0.28768207245178096, 1.0076325842869118, 1.10979770904011, 0.94921875,
      219.5350780001084)),
    (build_scaled_farey(ex(Q(4, 5))), H((Q(3, 4), Q(1))), 6, None,
     (0.0, 0.9856886486692886, 1.0708262526302867, 5.0, 2221.396566852871)),
    (build_scaled_farey(ex(1)), H((Q(0), Q(1))), 2, None,
     (float("-inf"), 1.3862943611198906, 1.3862943611198906, 0.0, 0.0)),
]


@pytest.mark.parametrize("case", range(len(DIAG_GOLDEN)))
def test_diagnostics_golden_table(case):
    m, hole, n, w, (theta, lam, xi, a, A) = DIAG_GOLDEN[case]
    d = expansion_diagnostics(m, n, hole, w)
    assert (d.theta_n, d.lambda_n, d.xi_n, d.a_n) == (theta, lam, xi, a)
    # summing the A_n coefficient in another order may move its last bit
    assert abs(d.A_n - A) <= math.ulp(A)


# -- Farey cylinder invariants --------------------------------------------------

def test_farey_small_parameter_at_most_two():
    tree = refine(build_scaled_farey(ex(Fraction(2, 5))), Hole.empty(), 15)
    for n in range(2, 16):
        assert tree.count(n) <= 2


def test_farey_full_parameter_powers_of_two():
    tree = refine(build_scaled_farey(ex(1)), Hole.empty(), 12)
    assert tree.counts == [2 ** n for n in range(1, 13)]


def test_farey_above_half_powers_of_two():
    tree = refine(build_scaled_farey(ex(Fraction(4, 5))), Hole.empty(), 12)
    assert tree.counts == [2 ** n for n in range(1, 13)]


def test_farey_with_hole():
    # removing (1/2, 1) leaves the single left-branch tail at every level
    tree = refine(build_scaled_farey(ex(1)),
                  H((Fraction(1, 2), Fraction(1))), 10)
    assert tree.counts == [1] * 10


def test_pressure_indicator_expressed_as_weight():
    # killing one branch through its weight matches the branch-domain hole
    m = build_d_adic(2)
    w = LocallyConstantWeight((ex(1), ex(0)))
    for n in (2, 5, 8):
        p_weight = pressure_estimate(m, w, Hole.empty(), n)
        tree = refine(m, H((Fraction(1, 2), Fraction(1))), n)
        assert p_weight == entropy_estimate(tree, n) == 0.0


# -- engine comparison -----------------------------------------------------------

def test_compare_engines_right_hole():
    rep = compare_engines(build_d_adic(2), RIGHT_HOLE, 24)
    assert rep.oracle_count == 121393
    assert set(rep.applicable_engines()) == {"oracle", "kneading", "markov"}
    assert rep.differences["oracle_vs_kneading"] <= 0.01
    assert rep.differences["kneading_vs_markov"] <= 1e-9


def test_compare_engines_no_hole():
    rep = compare_engines(build_d_adic(2), Hole.empty(), 8)
    assert rep.kneading_entropy is None  # empty hole is not a left hole
    assert abs(rep.oracle_entropy - math.log(2)) < 1e-12
    assert abs(rep.markov_entropy - math.log(2)) < 1e-12


def test_compare_engines_float_farey_only_oracle():
    # named for the float Farey map it used to take; now an exact input that
    # no engine but the oracle covers: not a left hole, and the orbit of
    # 1/10037 (2 has order 10036 mod 10037) passes the Markov engine's cap
    m = build_d_adic(2)
    rep = compare_engines(m, H((Fraction(1, 10037), Fraction(2, 10037))), 8)
    assert rep.applicable_engines() == ["oracle"]
    assert rep.kneading_entropy is None and rep.markov_entropy is None


def test_left_hole_parameter_detection():
    assert left_hole_parameter(build_d_adic(2), RIGHT_HOLE) == Fraction(3, 4)
    assert left_hole_parameter(build_d_adic(2), H((Fraction(1, 4), Fraction(1)))) is None
    assert left_hole_parameter(build_d_adic(3), RIGHT_HOLE) is None


def test_left_hole_parameter_recognises_the_doubling_map_by_value(monkeypatch):
    import json
    from holed_entropy.mapmodel import (Affine, Branch, IntervalOpen,
                                        PiecewiseMap, map_to_config)
    cfg = json.loads(json.dumps(map_to_config(build_d_adic(2))))
    read_back, _ = map_from_config(cfg)
    assert read_back is not build_d_adic(2)
    half = Fraction(1, 2)
    tent = PiecewiseMap(IntervalOpen(0, 1),
                        (Branch(IntervalOpen(0, half), Affine(2, 0)),
                         Branch(IntervalOpen(half, 1), Affine(-2, 2))))
    farey = build_scaled_farey(1)

    def no_branch(*args, **kwargs):
        raise AssertionError("the rule built a map")

    # the inputs are built: from here on a map build fails the test
    monkeypatch.setattr(mapmodel, "Branch", no_branch)
    assert left_hole_parameter(read_back, RIGHT_HOLE) == Fraction(3, 4)
    assert left_hole_parameter(tent, RIGHT_HOLE) is None
    assert left_hole_parameter(farey, RIGHT_HOLE) is None
    with pytest.raises(AssertionError, match="built a map"):
        build_d_adic(2)


@pytest.mark.parametrize("d", [2, 3])
def test_d_adic_cylinder_formula_matches_the_generic_inversion(d):
    m = build_d_adic(d)
    assert mapmodel.d_adic_degree(m) == d
    rng = random.Random(d)
    for _ in range(200):
        word = [rng.randrange(d) for _ in range(rng.randint(1, 12))]
        assert (cylinders._cylinder_interval(m, word, d)
                == cylinders._cylinder_interval(m, word))


# -- CSV ---------------------------------------------------------------------------

def test_export_level_counts(tmp_path):
    tree = refine(build_d_adic(2), RIGHT_HOLE, 6)
    path = tmp_path / "counts.csv"
    export_level_counts(tree, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,count,entropy_estimate"
    assert len(lines) == 7
    assert lines[6].startswith("6,21,")
