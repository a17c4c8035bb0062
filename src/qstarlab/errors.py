"""Exception types raised by the structure and form checks.

Every error that a check can raise carries enough payload to reproduce the
failure: offending indices, residuals, or the competing values of a
cross-check.  Checks that merely *record* a failure return a report instead;
raising is reserved for violated preconditions and genuine inconsistencies.
"""


class QStarError(Exception):
    """Base class for all errors raised by this package."""


class MissingUnit(QStarError):
    """The algebra has no multiplicative unit at the declared index."""


class DependentBasis(QStarError):
    """The declared basis matrices are linearly dependent."""


class ClosureViolation(QStarError):
    """A product or adjoint left the declared span.

    Carries the context string, the offending indices and the membership
    residual so the failure can be located.
    """

    def __init__(self, context, residual, indices=None):
        self.context = context
        self.residual = float(residual)
        self.indices = indices
        where = f" at {indices}" if indices is not None else ""
        super().__init__(f"{context}{where}: residual {residual:.3e} outside span")


class NotInA0(QStarError):
    """An element required to lie in the distinguished *-subalgebra does not."""


class NotIps(QStarError):
    """A form fails one of the invariant-positive-sesquilinear requirements."""


class ZeroForm(QStarError):
    """The form vanishes identically; no representation space exists."""


class EmptyFamily(QStarError):
    """A form family with no generators was supplied where one is required."""


class FamilyNotBalanced(QStarError):
    """The operation requires a family flagged as closed under twisting."""


class NotSufficient(QStarError):
    """The family does not separate points of the algebra."""


class CharacterizationMismatch(QStarError):
    """Independent routes to the bounded-element norm disagree.

    This signals a numerics bug, not a property of the input.  Carries the
    competing values.
    """

    def __init__(self, values):
        self.values = dict(values)
        pairs = ", ".join(f"{k}={v:.12e}" for k, v in self.values.items())
        super().__init__(f"norm characterizations disagree: {pairs}")


class NotWellDefined(QStarError):
    """No element of the algebra realizes the requested weak product."""

    def __init__(self, residual, rhs_norm):
        self.residual = float(residual)
        self.rhs_norm = float(rhs_norm)
        super().__init__(
            f"weak product system inconsistent: residual {residual:.3e} "
            f"against right-hand side of norm {rhs_norm:.3e}"
        )


class ProductOverflow(QStarError):
    """The weak product exists, but its coefficients exceed the float range."""


class OutOfFloatRange(QStarError):
    """A result exists, but it overflows or underflows the float range."""


class AmbiguousProduct(QStarError):
    """The weak product system has a nontrivial null space.

    Only possible when the family fails to separate points; carries a null
    direction as a coefficient vector.
    """

    def __init__(self, null_coeffs):
        self.null_coeffs = null_coeffs
        super().__init__("weak product underdetermined: family does not separate points")


class BadExponent(QStarError):
    """Exponent outside the supported range p >= 2."""


class BadMeasure(QStarError):
    """Point masses must be strictly positive."""


class ZeroFunction(QStarError):
    """The extremal-weight problem is degenerate for the zero function."""


class ParseError(QStarError):
    """Malformed input file or inline payload.

    Carries the source path (or '<inline>') and, when known, the field name
    of the defect.
    """

    def __init__(self, source, detail, field=None):
        self.source = source
        self.detail = detail
        self.field = field
        loc = f", field '{field}'" if field is not None else ""
        super().__init__(f"{source}{loc}: {detail}")
