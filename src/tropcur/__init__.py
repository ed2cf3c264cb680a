"""tropcur: invariant currents on toric varieties vs. their tropicalizations.

Computational companion for the correspondence between S- and F-invariant
closed positive currents on a smooth complex toric variety and closed
positive Lagerberg currents on its tropicalization: exterior-algebra
positivity tests, the normalized tropical pullback/pushforward, a concrete
Radon-measure model of currents, stratum decomposition, the C-finite-mass
criterion, and extension by zero.

Importing the package loads none of its modules.  Each name below is
looked up in its module on first access (PEP 562), so a command-line call
pays only for the modules its subcommand runs.
"""

import importlib

# module -> the names the package root re-exports from it
_EXPORTS = {
    "fans": ("Cone", "Fan", "ToricChart", "CompactifiedPoint", "validate_fan"),
    "fiber": ("LagerbergFiberForm", "ComplexFiberForm", "GramForm", "Verdict",
              "PositivityVerdict", "wedge", "apply_involution", "embed_complex",
              "gram_form", "dual_pairing", "positivity_verdict",
              "decomposable_test", "reverify"),
    "coeffs": ("Poly", "UniFn", "CoefficientFn", "bump", "plateau"),
    "polyhedra": ("Polyhedron",),
    "fields": ("LagerbergFormField", "InvariantComplexFormField", "differentiate",
               "trop_pullback_field", "integrate_top", "check_compatibility",
               "bump_box_field", "boundary_window_field"),
    "measures": ("PieceMeasure", "Piece", "Atom", "DerivativeAtom", "integrate_against",
                 "total_variation_decompose", "abs_measure", "restrict_measure",
                 "lebesgue_piece"),
    "currents": ("LagerbergCurrent", "WeightedComplex", "evaluate", "closedness_test",
                 "positivity_check", "canonical_decomposition", "resum", "c_finite_test",
                 "extend_by_zero", "integration_current", "balancing_check"),
    "correspond": ("InvariantComplexCurrent", "push_forward", "lift",
                   "round_trip_verify", "complex_positivity_check", "compat_checks",
                   "kernel_point_current", "validate_shadow"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
