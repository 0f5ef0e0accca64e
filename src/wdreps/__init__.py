"""Exact-arithmetic toolkit for Weil-Deligne representations: Weyl-module
(Schur functor) constructions, monodromy filtrations, certified purity
tests, and rigidity scans of Q(t)-families at rational specialization
points."""

__version__ = "0.1.0"

from .families import (DenominatorVanishes, PointResult, RigidityReport,
                       SingularFrobenius, TraceLinkResult, default_scan_points,
                       purity_scan, rigidity_check, specialize,
                       specialize_signature, trace_link_check)
from .fields import (Field, NFElem, NumberField, ParseError, Poly, QQ, QT,
                     RatFunc, RationalField, RationalFunctionField,
                     field_from_json, squarefree_decomposition, squarefree_part)
from .linalg import (Matrix, SingularMatrixError, ZeroDivisorPivotError, block_diagonal,
                     charpoly, column_echelon, mat_subspaces, mult_jordan_chevalley,
                     poly_eval_matrix, scalar_restriction)
from .roots import (DEFAULT_EPS, CertificationFailed, ModulusInterval,
                    root_moduli_certified)
from .schur import (Partition, ResourceCapExceeded, SchurBasis, hook_content_dim,
                    schur_basis, schur_derivation, schur_of_matrix, specht_dim,
                    young_symmetrizer)
from .wd import (Filtration, GradedPurity, NonIntegralWeight, PurityReport, Signature,
                 SignatureEntry, WDRep, frobenius_semisimplify, frss_signature,
                 inertia_closure, monodromy_filtration, purity_check, sp_construct,
                 wd_direct_sum, wd_schur, wd_tensor, wd_validate)

__all__ = [name for name in dir() if not name.startswith("_")]
