"""MAP inference for pairwise MRFs/CRFs.

Regularized Frank-Wolfe solvers with l2 and entropic direction steps,
the classical first-order baselines (mean field, projected gradient,
accelerated projections, multiplicative updates, two-block splitting),
plus rounding schemes, brute-force oracles, and convergence-bound
diagnostics for desk-scale instances.
"""

from .diagnostics import (ConvergenceParams, OracleReport, TightnessReport,
                          brute_force_map, convergence_params, decrease_bound,
                          feasible_set_diameter, finite_diff_gradient,
                          tightness_report, vertex_regularizer_constancy)
from .errors import (CapacityError, Diverged, InstanceFormatError,
                     UnsupportedFeatureError)
from .instances import (RandomDense, RandomEdgeList, RandomGrid, generate,
                        potts_matrix, read_json, read_uai, write_json)
from .model import (CrfInstance, DenseMatrix, DiagonalShift, EdgeList,
                    GaussianKernel)
from .regularizers import (EntropyRegularizer, L2Regularizer,
                           regularizer_bounds, regularizer_value,
                           strong_convexity)
from .schedules import (SCHEDULES, Adaptive, Constant, ConstantLength, Harmonic,
                        InvSqrt, LineSearch, HarmonicRamp, StepContext,
                        stepsize)
from .simplex import (is_feasible, project_feasible, project_simplex,
                      round_bcd, round_nearest, rounding_constant,
                      softmax_rows)
from .solvers import (ADMM, EMD, METHODS, PGD, ConvexFW, DampedMeanField,
                      EntropicFW, FastPGM, IterationRecord, IterationTrace,
                      L2FW, MeanField, SolverConfig, VanillaFW,
                      conditional_gradient_norm, convexify, direction_point,
                      initial_point, lmo_vanilla, run_generalized_fw)

__version__ = "0.1.0"
