"""gyrokit: gyrogroups, their actions, and the classical counting theorems.

Validate finite Cayley tables and analytic ball models, compute gyrations,
cosets, orbits, stabilizers and Burnside counts, decide when left
gyroaddition yields a coset action, and test equivalence of G-sets.
"""

__version__ = "0.1.0"

from .actions import (ActionClassification, FiniteGSet, OrbitDecomposition,
                      Representation, action_from_homomorphism,
                      build_representation, burnside_count,
                      check_orbit_stabilizer, classify, disjoint_union,
                      faithful_quotient_action, orbit_decomposition_equation,
                      orbits_and_stabilizers, parse_action_table,
                      random_action, relabel_points, restrict_to_invariant,
                      serialize_action_table, stabilizer_of_translate,
                      validate_action)
from .ball import (BallGyrogroup, ball_gyration_matrix, check_ball_laws,
                   einstein_add, lorentz_gamma, mobius_add)
from .core import (Check, CriterionError, GyroError, GyrogroupCarrier,
                   InvalidElementError, NumericalError, ValidationError,
                   check_axiom_residuals, check_cancellation_laws,
                   check_cancellation_laws_exhaustive, coaddition, cominus,
                   conjugate, conjugate_set, gyration)
from .coset_actions import (CriterionReport, build_coset_action,
                            coset_criterion, coset_criterion_sampled,
                            induced_action_over_subgyrogroup,
                            self_action_possible_sampled)
from .equivalence import (ComponentMatch, GMap, are_equivalent_transitive,
                          fundamental_isomorphism, is_equivalence, is_gmap,
                          match_components)
from .finite import (CayleyTable, CosetPartition, FiniteGyrogroup,
                     TableFormatError, diagnose_gyrogroup,
                     enumerate_subgyrogroups, is_l_subgyrogroup,
                     is_subgyrogroup, left_cosets, parse_cayley_table,
                     serialize_cayley_table, subgyrogroup_closure,
                     validate_gyrogroup)
from .pairs import (PairElement, PairGyrogroup, check_pair_axioms,
                    rotation_quotient_gset)
