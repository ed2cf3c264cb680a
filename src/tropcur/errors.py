"""Exception hierarchy and the verdict type shared by all tropcur modules.

Every structured failure carries enough data (the ``payload`` attribute)
to re-verify the complaint: a witness pair of cones, an offending ray, a
sample point, etc.  A :class:`Verdict` is the outcome of a decision that
does not raise.
"""

from dataclasses import dataclass


class TropcurError(Exception):
    """Base class; ``payload`` holds machine-readable witness data."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


# --- fans ---------------------------------------------------------------
class NotStrictlyConvex(TropcurError):
    pass


class NotSmooth(TropcurError):
    pass


class BadIntersection(TropcurError):
    pass


class OutsideSupport(TropcurError):
    pass


# --- fiber algebra ------------------------------------------------------
class DimensionMismatch(TropcurError):
    pass


class WrongAlgebra(TropcurError):
    pass


class NotSquareBidegree(TropcurError):
    pass


class BidegreeMismatch(TropcurError):
    pass


# --- fields -------------------------------------------------------------
class NonCompactSupport(TropcurError):
    pass


class ToleranceNotMet(TropcurError):
    pass


class CompatibilityViolation(TropcurError):
    pass


# --- measures -----------------------------------------------------------
class Divergent(TropcurError):
    pass


class NonMeasurePiece(TropcurError):
    pass


class NotLocallyFinite(TropcurError):
    pass


class SignNotCertified(TropcurError):
    pass


# --- currents / correspondence -------------------------------------------
class SupportEscapesU(TropcurError):
    pass


class NotPositive(TropcurError):
    pass


class NotCFinite(TropcurError):
    pass


class NotClosed(TropcurError):
    pass


class MixedDimension(TropcurError):
    pass


class InvalidShadow(TropcurError):
    pass


# --- cli ------------------------------------------------------------------
class ParseError(TropcurError):
    pass


class ValidationError(TropcurError):
    pass


# --- verdicts ---------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of one decision: a positivity tier or a hypothesis check.

    ``tier`` names what was decided: 'strong', 'positive' or 'weak'
    positivity ('positive' also for currents), 'closed', 'c_finite',
    'balanced' or 'compatible'.  ``answer`` is 'yes', 'no' or 'unknown';
    ``bool(v)``, ``.yes`` and ``.no`` read it.  Yes answers may carry a
    certificate that re-verifies exactly; no answers carry a witness (for
    positivity, a strictly negative exact pairing) or a structural reason
    such as a failed symmetry check.  ``exact`` says the verdict was
    decided exactly rather than sampled: closedness decided symbolically,
    balancing, or a current's positivity decided cell by cell (see
    ``currents.positivity_check``).  ``residual`` is closedness's worst
    sampled pairing.
    """
    tier: str
    answer: str
    reason: str = ""
    witness: object = None
    certificate: object = None
    exact: bool = False
    residual: float = None

    @property
    def yes(self):
        return self.answer == "yes"

    @property
    def no(self):
        return self.answer == "no"

    def __bool__(self):
        return self.yes
