"""Topological entropy of piecewise monotone interval maps with holes.

Three cross-validating engines: exact cylinder counting, the boundary-orbit
tower determinant for left holes of the doubling map, and exact Markov
transition spectra with pole-order detection; plus a lab for sweeping hole
families and estimating local regularity of the entropy.

The public names resolve on first access (PEP 562), each to its
submodule's own object, so importing the package loads no engine: a CLI
command imports only the engine it runs.
"""

import importlib

__version__ = "0.1.0"

# the engine names that regularity.solve dispatches on; the CLI's parser
# reads them here, without loading an engine
ENGINES = ("kneading", "markov", "oracle")

_SUBMODULE_NAMES = {
    "cylinders": ("Cylinder", "ExpansionDiagnostics", "LocallyConstantWeight",
                  "RefinementTree", "entropy_estimate", "expansion_diagnostics",
                  "export_level_counts", "pressure_estimate", "refine"),
    "errors": ("EmptyPartitionError", "HoledEntropyError",
               "InvalidParameterError", "NoRootError", "NotFinitelyMarkovError",
               "ResourceLimitError"),
    "kneading": ("DeterminantSeries", "LeftHoleEntropy", "RootResult",
                 "Termination", "TowerOrbit", "build_orbit", "determinant",
                 "entropy_left_hole", "leading_root"),
    "mapmodel": ("Affine", "Branch", "Hole", "IntervalOpen", "Moebius",
                 "PiecewiseMap", "build_d_adic", "build_doubling",
                 "build_scaled_farey", "hole_dist", "load_map_config",
                 "map_from_config", "map_to_config", "restrict_partition"),
    "markov": ("MarkovEntropy", "MarkovRefinement", "SpectralReport",
               "TransitionMatrix", "entropy_markov", "refine_markov",
               "spectral_report", "spectrum_markov", "to_dot",
               "transition_matrix"),
    "polyexact": (),
    "regularity": ("CustomFamily", "EngineComparison", "HolderBoundReport",
                   "HolderEstimate", "LeftHoleFamily", "SlidingHoleFamily",
                   "SweepResult", "SweepRow", "SweepSpec", "compare_engines",
                   "emit_csv", "emit_svg_plot", "entropy_at", "holder_estimate",
                   "left_hole_parameter", "run_sweep", "verify_holder_bound"),
}

# public name -> the submodule that defines it, each submodule's own name
# included
_SOURCE = {name: module for module, names in _SUBMODULE_NAMES.items()
           for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{source}", __name__)
    if source == name:
        return module  # the import bound it on the package too
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
