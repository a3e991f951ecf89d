"""Exact construction and verification of q-deformed Clifford algebras.

The package realizes the deformed generators inside the undeformed
N-mode fermionic algebra, builds the braid matrices and q-symmetrizers
governing their quadratic relations, and verifies every claimed identity
(relations, Poincare series, quantum-group covariance, star structure,
invariant identities) by structural zero tests over the exact field Q(q).
"""

__version__ = "0.1.0"

from .scalar import (ONE, PoleError, Poly, Q, RationalFunction, ZERO,
                     parse_rational, q_number, q_power)
from .fock import (FockOperator, build_generators, identity, number_op,
                   q_exponent)
from .rmatrix import (RMatrix, build_permutation, build_rhat_sl, check_braid,
                      check_hecke, projector_sl, projector_sp)
from .deform import (GeneratorSet, MapConstructionError, build_deforming_map,
                     build_inverse_map, map_relations, poincare_rank,
                     relation_residuals, star_compatibility, undeformed_set)
from .hopf import (HopfAlgebraData, InvariantElement, act, check_covariance,
                   check_module_algebra, classical_js, deformed_js,
                   invariance_check, invariant_number, verify_I1_identity)
from .chain import chain_residuals, lexicographic_experiment, scale_copies
from .report import CONVENTIONS, RelationReport, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
