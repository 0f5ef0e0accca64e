"""Exact-arithmetic toolkit for Weil-Deligne representations: Weyl-module
(Schur functor) constructions, monodromy filtrations, certified purity
tests, and rigidity scans of Q(t)-families at rational specialization
points."""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name's home module.  A name resolves on first access (PEP 562),
# so importing the package, or `wdreps.cli`, loads no module it does not use.
_EXPORTS = {
    "families": "PointResult RigidityReport TraceLinkResult default_scan_points purity_scan "
                "rigidity_check specialize specialize_signature trace_link_check",
    "fields": "CertificationFailed DEFAULT_EPS DenominatorVanishes Field NFElem NumberField "
              "ParseError Poly QQ QT RatFunc RationalField RationalFunctionField "
              "ResourceCapExceeded SingularFrobenius field_from_json squarefree_decomposition "
              "squarefree_part",
    "linalg": "Matrix SingularMatrixError ZeroDivisorPivotError block_diagonal charpoly "
              "column_echelon mat_subspaces mult_jordan_chevalley poly_eval_matrix "
              "scalar_restriction",
    "roots": "ModulusInterval root_moduli_certified",
    "schur": "Partition SchurBasis hook_content_dim schur_basis schur_derivation "
             "schur_of_matrix specht_dim young_symmetrizer",
    "wd": "Filtration GradedPurity NonIntegralWeight PurityReport Signature SignatureEntry WDRep "
          "frobenius_semisimplify frss_signature inertia_closure monodromy_filtration "
          "purity_check sp_construct wd_direct_sum wd_schur wd_tensor wd_validate",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
