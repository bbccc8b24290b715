"""Complex structures on finite-dimensional real normed spaces.

Core surface: normed spaces and the averaged complexification norm, validated
i-operators, respecting operators, executable isomorphism constructions,
membership-oracle transforms, and a symbolic direct-sum derivation checker.
"""

from .config import DEFAULT_TOL, Tolerances
from .errors import (CompositionError, DescriptorError, DimensionMismatchError,
                     IstructError, QuadratureError, RespectViolationError,
                     ScenarioError, StructureValidationError, WitnessError)
from .spaces import (ComplexificationOfBase, EuclideanQuadratic, Lp,
                     NormedSpace, Polyhedral, SubspaceNorm, SumNorm,
                     WeightedLp, complexification_norm,
                     complexification_norm_batch, direct_sum, euclidean_gram,
                     euclidean_space, lp_space, norm, norm_batch,
                     space_from_dict, space_to_dict)
from .structures import (Certificate, ComplexStructure, certify,
                         complex_scalar_action, conjugate_structure,
                         natural_i_operator, natural_i_operator_matrix,
                         search_i_operator, validate_i_operator)
from .morphisms import (RespectingOperator, block_diag2, complexify_operator,
                        compose, conjugate_operator, identity_operator,
                        injection_first, injection_second, is_isomorphism,
                        make_respecting, surjection_first, surjection_second)
from .theory import (ComplexificationWitness, build_complexification_witness,
                     extract_conjugation, squares_isomorphism,
                     verify_complex_cartesian_identities,
                     verify_real_cartesian_identities,
                     verify_squares_isomorphism, verify_theorem_complex,
                     verify_theorem_real)
from .ideals import (AllOperators, GroupedCorpus, IdealOracle, MatrixPredicate,
                     NoOperators, NormThreshold, RankThreshold, RealOperator,
                     audit_self_conjugacy, complexify_ideal, conjugate_ideal,
                     decide_complex, decide_real, ideal_norm, realify_ideal)
from .pelczynski import (Atom, ChainDerivation, Step, SumExpr, apply_rule,
                         check_derivation, expr, factorization_hypothesis_check,
                         reference_chain, search_chain)
from .report import VerificationReport

__version__ = "0.1.0"
