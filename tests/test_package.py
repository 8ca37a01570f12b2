import os
import subprocess
import sys
from pathlib import Path

import pytest

import holed_entropy

# the package's public names, as they were when __init__ imported every
# engine at once
PUBLIC = [
    "Affine", "Branch", "CustomFamily", "Cylinder", "DeterminantSeries",
    "EmptyPartitionError", "EngineComparison", "ExpansionDiagnostics",
    "HolderBoundReport", "HolderEstimate", "Hole", "HoledEntropyError",
    "IntervalOpen", "InvalidParameterError", "LeftHoleEntropy",
    "LeftHoleFamily", "LocallyConstantWeight", "MarkovEntropy",
    "MarkovRefinement", "Moebius", "NoRootError", "NotFinitelyMarkovError",
    "PiecewiseMap", "RefinementTree", "ResourceLimitError", "RootResult",
    "SlidingHoleFamily", "SpectralReport", "SweepResult", "SweepRow",
    "SweepSpec", "Termination", "TowerOrbit", "TransitionMatrix",
    "build_d_adic", "build_doubling", "build_orbit", "build_scaled_farey",
    "compare_engines", "cylinders", "determinant", "emit_csv",
    "emit_svg_plot", "entropy_at", "entropy_estimate", "entropy_left_hole",
    "entropy_markov", "errors", "expansion_diagnostics",
    "export_level_counts", "holder_estimate", "hole_dist", "kneading",
    "leading_root", "left_hole_parameter", "load_map_config",
    "map_from_config", "map_to_config", "mapmodel", "markov", "polyexact",
    "pressure_estimate", "refine", "refine_markov", "regularity",
    "restrict_partition", "run_sweep", "spectral_report", "spectrum_markov",
    "to_dot", "transition_matrix", "verify_holder_bound",
]
SUBMODULES = {"cylinders", "errors", "kneading", "mapmodel", "markov",
              "polyexact", "regularity"}


def test_all_is_the_public_list():
    assert holed_entropy.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(holed_entropy))


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_submodules_own_object(name):
    obj = getattr(holed_entropy, name)
    if name in SUBMODULES:
        assert obj is sys.modules[f"holed_entropy.{name}"]
    else:
        assert obj.__module__.split(".")[1] in SUBMODULES
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from holed_entropy import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert namespace["refine"] is holed_entropy.cylinders.refine


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        holed_entropy.no_such_name


def test_importing_the_package_loads_no_submodule():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, holed_entropy\n"
             "print(sorted(m for m in sys.modules if m.startswith('holed_entropy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
