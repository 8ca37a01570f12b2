import gc
import math
import os
import random
import subprocess
import sys
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
from holed_entropy.mapmodel import IntervalOpen, map_from_config, subtract_pieces
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


@pytest.mark.parametrize("enabled", [True, False])
def test_component_intervals_restores_the_gc_state(enabled):
    # the replay pauses cyclic GC and leaves it as it found it
    tree = refine(build_d_adic(2), H((Fraction(3, 4), Fraction(1))), 8)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(tree.component_intervals(8)) == tree.count(8)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_interior_hole_level1_components():
    tree = refine(build_d_adic(2), H((Fraction(3, 4), Fraction(5, 6))), 3)
    assert tree.count(1) == 3
    assert tree.component_intervals(1) == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(5, 6), Fraction(1))]


# -- endpoint reads -------------------------------------------------------------
# refine stores each level's runs only; a read replays the endpoints from
# level 1 on integer pair lists.

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


def assert_reads_match_reference(tree):
    """Every level of the tree reads as the Fraction refinement from the
    definition: counts, endpoints, itineraries and links."""
    want = reference_refine(tree.map, tree.hole, tree.depth)
    assert tree.counts == [len(level) for level in want]
    for n, level in enumerate(want, 1):
        assert tree.component_intervals(n) == [(lo, hi) for lo, hi, _, _ in level]
        assert tree.itineraries(n) == [w for _, _, w, _ in level]
        assert tree._levels[n - 1].links(tree._kernel) == (
            [w[0] for _, _, w, _ in level], [parent for _, _, _, parent in level])


def reference_counts(pmap, hole, depth):
    return [len(level) for level in reference_refine(pmap, hole, depth)]


def branch_components(tree, n, branch):
    """How many of level n's components one branch pulled back."""
    runs = tree._levels[n - 1].runs
    return sum(e - s for (b, *_), (s, e) in zip(tree._kernel.windows, runs) if b == branch)


def run_fresh(probe):
    """Run ``probe`` in a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_generic_path_agrees_with_scaled_path():
    m = build_d_adic(2)
    for hole in (RIGHT_HOLE, H((Fraction(3, 4), Fraction(5, 6)))):
        assert_reads_match_reference(refine(m, hole, 12))


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
    assert_reads_match_reference(refine(build_d_adic(d), hole, depth))


TENT = map_from_config({"codomain": ["0", "1"], "branches": [
    {"domain": ["0", "1/2"], "kind": "affine", "coeffs": ["2", "0"]},
    {"domain": ["1/2", "1"], "kind": "affine", "coeffs": ["-2", "2"]}]})[0]


def test_kernels_agree_on_orientation_reversing_map():
    for hole in (Hole.empty(), H((Fraction(3, 5), Fraction(7, 10))),
                 H((Fraction(1, 8), Fraction(1, 6)), (Fraction(5, 6), Fraction(1)))):
        assert_reads_match_reference(refine(TENT, hole, 10))


def test_int64_kernel_splits_one_pullback_across_a_hole():
    # branch 0 pulls level-1 (1/19, 1/2) back to (1/38, 1/4), which contains
    # the hole: one parent and branch, two children at level 2
    hole = H((Fraction(1, 20), Fraction(1, 19)))
    for m in (build_d_adic(2), TENT):
        tree = refine(m, hole, 8)
        branch, parent = tree._levels[1].links(tree._kernel)
        children = Counter(zip(parent, branch))
        assert children[(1, 0)] == 2 and max(children.values()) == 2
        assert_reads_match_reference(tree)


def test_refine_writes_no_large_level_and_loads_no_numpy():
    # in a fresh interpreter: refine counts the [13/16, 1] tree to depth 24
    # (922,111 components at the last level) from the orbits of the window
    # ends down to level 1.  It pulls no level's endpoints back and imports
    # no numpy.  The tree keeps a few runs per level: 1000 components' pair
    # endpoints alone would take ~0.24 MB
    run_fresh("import sys, tracemalloc\n"
              "from fractions import Fraction\n"
              "from holed_entropy import Hole, build_d_adic, cylinders, refine\n"
              "written = []\n"
              "pull = cylinders._PairKernel.pull\n"
              "def recording_pull(self, level, lo, hi):\n"
              "    written.append(level)\n"
              "    return pull(self, level, lo, hi)\n"
              "cylinders._PairKernel.pull = recording_pull\n"
              "tracemalloc.start()\n"
              "tree = refine(build_d_adic(2), Hole([(Fraction(13, 16), 1)]), 24)\n"
              "retained = tracemalloc.get_traced_memory()[0]\n"
              "tracemalloc.stop()\n"
              "assert tree.counts[-1] == 922111, tree.counts\n"
              "assert 'numpy' not in sys.modules\n"
              "assert written == [], len(written)\n"
              "assert retained <= 2 ** 15, retained\n")


def test_wide_map_locates_each_window_end_once(monkeypatch):
    # the 2000 window-image ends of d-adic:1000 are 0 and 1, which no
    # window holds: the run search locates each (point, kind) once, not
    # 2000 times at O(W) each, and follows no orbit
    calls = []
    locate = cylinders._RunSearch._locate

    def counting_locate(self, y, kind):
        calls.append((y, kind))
        return locate(self, y, kind)

    monkeypatch.setattr(cylinders._RunSearch, "_locate", counting_locate)
    tree = refine(build_d_adic(1000), Hole.empty(), 2)
    assert tree.counts == [1000, 1000 ** 2]
    assert calls == [((0, 1), cylinders._HI_UPTO), ((1, 1), cylinders._LO_BELOW)]


def test_large_read_loads_no_numpy():
    # in a fresh interpreter: reading level 20 of the [13/16, 1] tree
    # replays more than 1.5 * 10^5 components from its first level of 10^3
    # on, all on pair lists
    run_fresh("import sys\n"
              "from fractions import Fraction\n"
              "from holed_entropy import Hole, build_d_adic, refine\n"
              "tree = refine(build_d_adic(2), Hole([(Fraction(13, 16), 1)]), 20)\n"
              "first = next(n for n, c in enumerate(tree.counts) if c >= 1000)\n"
              "assert sum(tree.counts[first:]) > 150_000, tree.counts\n"
              "assert len(tree.component_intervals(20)) == tree.counts[-1]\n"
              "assert 'numpy' not in sys.modules\n")


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
    # level 1 of the doubling map with hole (1/4, 1/2) is (0, 1/4), (1/2, 1),
    # and level n has endpoints over 2**(n+1): from level 62 on they pass
    # 2**63, and pair lists keep them exact
    m = build_d_adic(2)
    hole = H((Fraction(1, 4), Fraction(1, 2)))
    tree = refine(m, hole, 64)
    assert_reads_match_reference(tree)
    assert tree.component_intervals(64)[0][1] == Fraction(1, 2 ** 65)
    # the inverses (y + 1/3) / 2 and (y + 4/3) / 2 of THIRDS have offsets
    # over 3, which no window end of the hole (5/6, 1) needs
    tree = refine(THIRDS, H((Fraction(5, 6), Fraction(1))), 30)
    assert_reads_match_reference(tree)
    # the second inverse of FAR_SHIFT, (y + 29/10) / 2, shifts by more than
    # the codomain's width, and both branches pull a component back at
    # every level
    hole = H((Fraction(-1, 3), Fraction(19, 20)))
    tree = refine(FAR_SHIFT, hole, 64)
    assert all(lv.links(tree._kernel)[0] == [0, 1] for lv in tree._levels)
    assert_reads_match_reference(tree)
    # inverse matrix entries near 2^20 add ~21 bits per level to the
    # unreduced pairs of a Moebius map
    farey = build_scaled_farey(Fraction(2 ** 20 - 1, 2 ** 20))
    assert_reads_match_reference(refine(farey, H((Fraction(1, 3), Fraction(3, 8))), 9))
    # a window end past 2**64, on a level of small heights
    farey = build_scaled_farey(Fraction(4, 5))
    hole = H((Fraction(1, 3), Fraction(2 ** 64 + 1, 3 * 2 ** 64)))
    assert_reads_match_reference(refine(farey, hole, 6))


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
        got = tree.component_intervals(n)
        assert got == [(lo, hi) for lo, hi, _, _ in level]
        assert tree.itineraries(n) == [word for _, _, word, _ in level]
        # sorted and disjoint, which the run search relies on
        assert all(lo < hi for lo, hi in got)
        assert all(a[1] <= b[0] for a, b in zip(got, got[1:]))


def test_pair_levels_return_python_values():
    farey = build_scaled_farey(ex(Fraction(4, 5)))
    for pmap, hole in ((farey, H((Fraction(1, 3), Fraction(3, 8)))),
                       (AFFINE_5_2, Hole.empty()), (build_d_adic(2), RIGHT_HOLE)):
        tree = refine(pmap, hole, 7)
        for n in range(1, 8):
            for lo, hi in tree.component_intervals(n):
                assert type(lo) is Fraction and type(hi) is Fraction
                assert type(lo.numerator) is int and type(lo.denominator) is int
                assert type(hi.numerator) is int and type(hi.denominator) is int
        words = tree.itineraries(7)
        assert all(type(b) is int for w in words for b in w)


def test_int64_levels_return_python_values():
    m = build_d_adic(2)
    tree = refine(m, RIGHT_HOLE, 16)   # level 15 has 1597 components
    for lo, hi in tree.component_intervals(16):
        assert type(lo) is Fraction and type(hi) is Fraction
        assert type(lo.numerator) is int and type(lo.denominator) is int
        assert type(hi.numerator) is int and type(hi.denominator) is int
    words = tree.itineraries(16)
    assert all(type(b) is int for w in words for b in w)
    for cyl in tree.cylinders(16)[:50]:
        for c in cyl.components:
            assert type(c.lo) is Fraction and type(c.lo.numerator) is int
    # the pressure sums the weights of the reference components: level 16
    # of the doubling map with hole [3/4, 1] has 2584 components, level 12
    # with hole [3/4, 5/6] 2429, of which 888 itineraries hold two
    w = LocallyConstantWeight((ex(Fraction(2, 3)), ex(Fraction(5, 7))))
    for hole, n in ((RIGHT_HOLE, 16), (H((Fraction(3, 4), Fraction(5, 6))), 12)):
        total = sum(math.prod(w.values[b] for b in word)
                    for _, _, word, _ in reference_refine(m, hole, n)[-1])
        assert pressure_estimate(m, w, hole, n) == (
            math.log(total.numerator) - math.log(total.denominator)) / n
    diag = expansion_diagnostics(m, 16, RIGHT_HOLE, w)
    assert all(type(getattr(diag, f)) is float
               for f in ("theta_n", "lambda_n", "xi_n", "a_n", "A_n"))


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
    assert_reads_match_reference(refine(pmap, hole, depth))


@settings(max_examples=30, deadline=None)
@given(hole=exact_holes(max_pieces=2),
       pmap=st.sampled_from([build_d_adic(2), build_d_adic(3), TENT, AFFINE_5_2,
                             build_scaled_farey(Fraction(4, 5))]),
       depth=st.integers(2, 8))
def test_deep_tree_reads_every_level_as_a_shallow_refine(hole, pmap, depth):
    # a tree keeps runs only: a deep tree reads a shallower level's
    # endpoints by replaying the runs from level 1, and its itineraries
    # from the runs of every level
    deep = refine(pmap, hole, depth)
    for n in range(1, depth + 1):
        shallow = refine(pmap, hole, n)
        assert deep.count(n) == shallow.count(n)
        assert deep.component_intervals(n) == shallow.component_intervals(n)
        assert deep.cylinders(n) == shallow.cylinders(n)
        assert deep.itineraries(n) == shallow.itineraries(n)


# -- the component cap -----------------------------------------------------------
# refine counts every level uncapped; a read that builds per-component data
# (endpoints, itineraries, cylinders) refuses a level n when a level up to n
# holds more than COMPONENT_CAP components, naming the first such level.

CAPPED_READS = ("component_intervals", "itineraries", "cylinders")


@contextmanager
def building_nothing():
    """Replaying endpoints or expanding a level's links fails at once: a
    read refused from the counts builds neither, and a read that the cap
    misses fails before it takes the memory."""
    def fail(*args):
        raise AssertionError("a capped read built per-component data")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylinders._PairKernel, "pull", fail)
        mp.setattr(cylinders._Level, "links", fail)
        yield


def assert_reads_refused(tree, n, cap, level):
    """Every capped read of level n refuses, naming ``level``, before it
    builds anything."""
    with building_nothing():
        for read in CAPPED_READS:
            with pytest.raises(ResourceLimitError,
                               match=f"^component cap {cap} exceeded at level {level}$"):
                read_level(tree, read, n)


def test_counts_are_uncapped_while_reads_are_capped():
    # 2^24 > 10^7 > 2^23: every level is counted, reads stop at level 23
    tree = refine(build_d_adic(2), Hole.empty(), 40)
    assert tree.counts == [2 ** n for n in range(1, 41)]
    for n in (24, 40):
        assert_reads_refused(tree, n, cylinders.COMPONENT_CAP, 24)
    assert len(tree.itineraries(12)) == 2 ** 12
    # the estimators that read components refuse where refine refused when
    # it capped counts: [3/4, 5/6] first passes 10^7 components at level 28
    hole = H((Fraction(3, 4), Fraction(5, 6)))
    assert refine(build_d_adic(2), hole, 40).count(40) == 5080977751
    message = "^component cap 10000000 exceeded at level 28$"
    with building_nothing():
        with pytest.raises(ResourceLimitError, match=message):
            pressure_estimate(build_d_adic(2), LocallyConstantWeight.ones(2), hole, 28)
        with pytest.raises(ResourceLimitError, match=message):
            expansion_diagnostics(build_d_adic(2), 28, hole=hole)


def test_counts_pass_2_to_the_63():
    # a level's count is the last of its starts, a Python int of any size
    tree = refine(build_d_adic(2), Hole.empty(), 70)
    assert tree.counts == [2 ** n for n in range(1, 71)]
    assert entropy_estimate(tree, 70) == pytest.approx(math.log(2))


@pytest.mark.parametrize("hole", [Hole.empty(), H((Fraction(1, 3), Fraction(3, 8)))])
def test_component_cap_inside_an_int64_pairs_step(hole, monkeypatch):
    farey = build_scaled_farey(Fraction(4, 5))
    tree = refine(farey, hole, 10)
    assert tree.counts == reference_counts(farey, hole, 10)
    first = branch_components(tree, 10, 0)
    assert 0 < first < tree.counts[-1]
    cap = (first + tree.counts[-1]) // 2
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", cap)
    # refused from the counts, before the replay pulls any level back
    assert_reads_refused(tree, 10, cap, 10)
    assert len(tree.component_intervals(9)) == tree.count(9)
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", tree.counts[-1])
    assert_reads_match_reference(tree)


def test_component_cap(monkeypatch):
    tree = refine(build_d_adic(2), Hole.empty(), 12)
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", 100)
    with pytest.raises(ResourceLimitError):
        tree.component_intervals(12)
    assert tree.count(12) == 4096


def test_component_cap_at_level_one(monkeypatch):
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", 3)
    assert_reads_refused(refine(build_d_adic(5), Hole.empty(), 2), 2, 3, 1)
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", 5)
    tree = refine(build_d_adic(5), Hole.empty(), 1)
    assert tree.counts == [5] and len(tree.cylinders(1)) == 5


@pytest.mark.parametrize("hole", [Hole.empty(), H((Fraction(1, 3), Fraction(3, 8)))])
def test_component_cap_on_a_moebius_map(hole, monkeypatch):
    farey = build_scaled_farey(ex(Fraction(4, 5)))
    tree = refine(farey, hole, 9)
    assert tree.counts == reference_counts(farey, hole, 9)
    for n in (2, 5, 9):
        cap = tree.count(n) - 1
        monkeypatch.setattr(cylinders, "COMPONENT_CAP", cap)
        assert_reads_refused(tree, 9, cap, n)
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", max(tree.counts))
    assert_reads_match_reference(tree)


def test_component_cap_boundary(monkeypatch):
    def reads(tree, n, cap):
        monkeypatch.setattr(cylinders, "COMPONENT_CAP", cap)
        return [read_level(tree, read, n) for read in CAPPED_READS]

    tree = refine(build_d_adic(2), Hole.empty(), 12)
    assert tree.counts == [2 ** n for n in range(1, 13)]
    assert all(len(r) == 512 for r in reads(tree, 9, 512))
    with pytest.raises(ResourceLimitError, match="cap 511 exceeded at level 9$"):
        reads(tree, 9, 511)
    assert all(len(r) == 4096 for r in reads(tree, 12, 4096))
    with pytest.raises(ResourceLimitError, match="cap 4095 exceeded at level 12$"):
        reads(tree, 12, 4095)
    tree = refine(build_d_adic(2), RIGHT_HOLE, 18)
    assert tree.counts == FIB_COUNTS[:18]
    assert len(reads(tree, 18, FIB_COUNTS[17])[0]) == FIB_COUNTS[17]
    with pytest.raises(ResourceLimitError, match="at level 18$"):
        reads(tree, 18, FIB_COUNTS[17] - 1)


@pytest.mark.parametrize("hole", [RIGHT_HOLE,
                                  H((Fraction(1, 8), Fraction(1, 6)),
                                    (Fraction(5, 6), Fraction(1)))])
def test_component_cap_inside_the_second_branch_of_an_int64_step(hole, monkeypatch):
    m = build_d_adic(2)
    tree = refine(m, hole, 10)
    assert tree.counts == reference_counts(m, hole, 10)
    first = branch_components(tree, 10, 0)
    assert 0 < first < tree.counts[-1]
    cap = (first + tree.counts[-1]) // 2
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", cap)
    assert_reads_refused(tree, 10, cap, 10)
    monkeypatch.setattr(cylinders, "COMPONENT_CAP", tree.counts[-1])
    assert_reads_match_reference(tree)


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
