"""Topological entropy of piecewise monotone interval maps with holes.

Three cross-validating engines: exact cylinder counting, the boundary-orbit
tower determinant for left holes of the doubling map, and exact Markov
transition spectra with pole-order detection; plus a lab for sweeping hole
families and estimating local regularity of the entropy.
"""

__version__ = "0.1.0"

from .cylinders import (Cylinder, ExpansionDiagnostics, LocallyConstantWeight,
                        RefinementTree, entropy_estimate, expansion_diagnostics,
                        export_level_counts, pressure_estimate, refine)
from .errors import (EmptyPartitionError, HoledEntropyError,
                     InvalidParameterError, NoRootError, NotFinitelyMarkovError,
                     ResourceLimitError)
from .kneading import (DeterminantSeries, LeftHoleEntropy, RootResult,
                       Termination, TowerOrbit, build_orbit, determinant,
                       entropy_left_hole, leading_root)
from .mapmodel import (Affine, Branch, Hole, IntervalOpen, Moebius,
                       PiecewiseMap, build_d_adic, build_doubling,
                       build_scaled_farey, hole_dist, load_map_config,
                       map_from_config, map_to_config, restrict_partition)
from .markov import (MarkovEntropy, MarkovRefinement, SpectralReport,
                     TransitionMatrix, entropy_markov, refine_markov,
                     spectral_report, spectrum_markov, to_dot,
                     transition_matrix)
from .regularity import (CustomFamily, EngineComparison, HolderBoundReport,
                         HolderEstimate, LeftHoleFamily, SlidingHoleFamily,
                         SweepResult, SweepRow, SweepSpec, compare_engines,
                         emit_csv, emit_svg_plot, entropy_at, holder_estimate,
                         left_hole_parameter, run_sweep, verify_holder_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
