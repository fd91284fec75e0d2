"""Numerical toolkit for natural states of causal input-output systems.

Time functions on uniform grids with exact constant-tail pasts, fitted
families of window seminorms, causal system operators, natural states as
lazy future-to-future operators, polynomial-kernel symmetrization and
identification, and the derivative calculus tying them together.
"""

from .timegrid import (AlignmentError, Grid, Interval, TimeFunction,
                       shift_left, shift_right, splice)
from .seminorm import (FittedFamily, NormReport, Weight, check_ff_axioms,
                       classify, taper_certificate, taper_delta)
from .sysop import (LimsupConvolution, LTISystem, PolyIntegralOperator,
                    SystemOp, TimeAdvance, centered_truncation,
                    check_causality, estimate_npower,
                    hypothesis_uniformity_check, steer_to_state, truncation)
from .kernel import (Permutation, PolyKernel, check_symmetrization_properties,
                     identify_kernels, kernel_from_cells,
                     permutation_change_of_variables, symmetrize)
from .states import (NaturalState, drive, reachability_experiment,
                     representative_independence, state_bound_check,
                     state_distance, state_distances, state_matching_ladder,
                     trajectory)
from .calculus import (FrechetPair, ShiftDerivative, SmoothInput,
                       fd_directional_order, frechet_of,
                       input_to_state_frechet, remainder_decay,
                       shift_derivative, state_frechet, trajectory_derivative)

__version__ = "0.1.0"
