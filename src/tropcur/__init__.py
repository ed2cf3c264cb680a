"""tropcur: invariant currents on toric varieties vs. their tropicalizations.

Computational companion for the correspondence between S- and F-invariant
closed positive currents on a smooth complex toric variety and closed
positive Lagerberg currents on its tropicalization: exterior-algebra
positivity tests, the normalized tropical pullback/pushforward, a concrete
Radon-measure model of currents, stratum decomposition, the C-finite-mass
criterion, and extension by zero.
"""

from .fans import Cone, Fan, ToricChart, CompactifiedPoint, validate_fan
from .fiber import (LagerbergFiberForm, ComplexFiberForm, GramForm, Verdict,
                    PositivityVerdict, wedge, apply_involution, embed_complex,
                    gram_form, dual_pairing, positivity_verdict,
                    decomposable_test, reverify)
from .coeffs import Poly, UniFn, CoefficientFn, bump, plateau
from .polyhedra import Polyhedron
from .fields import (LagerbergFormField, InvariantComplexFormField,
                     differentiate, trop_pullback_field, average_over_S,
                     integrate_top, check_compatibility, wedge_fields,
                     apply_J_field, bump_box_field, boundary_window_field)
from .measures import (PieceMeasure, Piece, Atom, DerivativeAtom, ImageMap,
                       OpenBox, integrate_against, total_variation_decompose,
                       abs_measure, image_measure, restrict_measure,
                       lebesgue_piece)
from .currents import (LagerbergCurrent, WeightedComplex, evaluate,
                       closedness_test, positivity_check,
                       canonical_decomposition, resum, c_finite_test,
                       extend_by_zero, integration_current, balancing_check,
                       wedge_with_form, from_cocoefficients)
from .correspond import (InvariantComplexCurrent, push_forward, lift,
                         round_trip_verify, complex_positivity_check,
                         compat_checks, kernel_point_current, validate_shadow)

__version__ = "0.1.0"
