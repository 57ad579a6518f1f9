"""Asymptotic unitary representations of nilpotent groups.

The package builds finitely generated torsion-free nilpotent groups from
polynomial Mal'cev coordinate laws, manipulates integer 2-cocycles on
them, realizes skinny cocycles as families of phase-shift unitaries with
vanishing multiplicativity defect, and certifies via an integer winding
number that those families stay a fixed distance from every genuine
unitary representation.
"""

import importlib

# Set before the submodules load: certificates record it.
__version__ = "0.1.0"

# Each public name and the module that defines it.  Names resolve on first
# use (PEP 562), so importing the package, the command line, or the exact
# certificate and sweep loads no numpy: only the dense path
# (`representation`, `obstruction`) imports it.
_EXPORTS = {
    "cohomology": (
        "Chain2", "KernelCocycle", "PolyCocycle", "boundary2",
        "coboundary", "cocycle_check", "cocycle_from_document", "is_cycle",
        "pair_cocycle_cycle", "skinny_check",
    ),
    "errors": (
        "DegreeBoundTooSmall", "DimensionMismatch", "InvalidCocycle",
        "NilstabError", "NonIntegralValue", "NotACycle", "NotASection",
        "NotCentral", "NotCoprime", "NotScalar", "NotSkinny", "PairingMismatch",
        "ParseError", "TermOutOfRange", "TooFarFromIdentity", "TorsionPairing",
        "ValidationError",
    ),
    "exact": (
        "PERTURBATION_RADIUS", "CertificateReport", "DefectResult",
        "certify_nonperturbability", "defect", "defects",
    ),
    "extensions": (
        "CentralExtension", "central_commutator_cycle", "central_extension",
        "interpolate_polynomial_cocycle", "promoted_cocycle", "scaling_map",
        "section_cocycle",
    ),
    "groups": ("Element", "MalcevGroup", "from_document", "lattice", "load_group"),
    "obstruction": (
        "NullTestReport", "PairingResult", "matrix_exp", "matrix_log_near_identity",
        "perturbation_null_test", "rho_family", "winding_pairing",
    ),
    "poly": ("MultiPoly", "xy_variables"),
    "representation": (
        "PhaseShiftMatrix", "build_rho", "chi_scalar_check",
        "frobenius_norm", "operator_norm", "voiculescu_pair",
    ),
    "validation": ("DEFAULT_SEED", "CheckResult", "ValidationReport"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = sorted(_MODULE_OF)
