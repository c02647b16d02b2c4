"""Numerical state-space metrics on reduced group C*-algebras.

Word-length Dirac data on concrete discrete groups, certified brackets for
the Connes state-space metric, and trace-bounded states with square-summable
densities.
"""

__version__ = "0.1.0"

from .errors import (BallRadiusError, ConfigError, GroupError, QmetricError,
                     ResourceError, StateError)
from .groups import (FiniteGroupTable, FreeAbelian, Group, GroupElement,
                     InfiniteDihedral, ProductZFinite, builtin_finite_table,
                     decode_element, group_from_json)
from .metrics import (Bracket, HeuristicResult, MetricBracket, connes_bracket,
                      connes_heuristic, d_2, d_inf, delta_coeffs)
from .opalgebra import (AlgebraElement, NormEstimate, TruncatedOperator,
                        commutator_matrix, commutator_norm_upper_l1, conv_mul,
                        lemma2_lower, norm_lower, op_matrix, star, trace_coeff)
from .states import (CharacterState, DensityState, KappaBound, OneState,
                     PdCheckResult, StateRep, TableState, TraceState,
                     VectorState, algebra_element_from_json, kappa_bounds,
                     pd_check, state_from_json)
from .wordlength import (Ball, GrowthReport, enumerate_ball, growth_fit,
                         square_sum_evidence)

__all__ = [name for name in dir() if not name.startswith("_")]
