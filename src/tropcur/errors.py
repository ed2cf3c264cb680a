"""Exception hierarchy and the verdict type shared by all tropcur modules.

Every structured failure carries enough data (the ``payload`` attribute)
to re-verify the complaint: a witness pair of cones, an offending ray, a
sample point, etc.  A :class:`Verdict` is the outcome of a decision that
does not raise.  :class:`Value` is the base of the package's immutable
value types.
"""

import functools
import operator


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


class FloatOverflow(TropcurError):
    pass


def float_range(integrate):
    """An integration entry point whose OverflowError (a large degree or
    window) is raised as FloatOverflow, the overflow in its payload; not as
    ToleranceNotMet, which currents.mass_estimate reads as an unknown mass."""
    @functools.wraps(integrate)
    def checked(*args, **kwargs):
        try:
            return integrate(*args, **kwargs)
        except OverflowError as err:
            raise FloatOverflow(f"the integral leaves the float range: {err}",
                                payload={"overflow": str(err)}) from err
    return checked


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


# --- values and verdicts ------------------------------------------------------

class Value:
    """Immutable value: a subclass declares its fields once, in ``_fields``,
    and the base constructor takes them positionally in that order.  A
    subclass with defaults, conversions or checks keeps its own ``__init__``
    and ends it in ``super().__init__(...)``.  Equality, hash, repr and
    ``replace`` read the fields.  (No dataclasses: each call compiles what
    it imports, and dataclasses loads inspect.)
    """
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, "
                            f"not {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):       # copy and pickle rebuild through __init__
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{type(self).__qualname__} has no field {min(unknown)!r}")
        return type(self)(*[changes.get(f, v) for f, v in zip(self._fields, self._values(self))])


class Verdict(Value):
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
    __slots__ = _fields = ("tier", "answer", "reason", "witness", "certificate", "exact",
                           "residual")

    def __init__(self, tier, answer, reason="", witness=None, certificate=None, exact=False,
                 residual=None):
        super().__init__(tier, answer, reason, witness, certificate, exact, residual)

    @property
    def yes(self):
        return self.answer == "yes"

    @property
    def no(self):
        return self.answer == "no"

    def __bool__(self):
        return self.yes
