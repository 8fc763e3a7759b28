"""Exception types shared across the package.

Everything derives from ValueError (bad data / bad request) except
PotentialOverflow, which is an OverflowError because it reports a genuine
float range failure rather than a malformed input.
"""


class EmptySupport(ValueError):
    """A point cloud or measure was constructed with no points."""


class DimMismatch(ValueError):
    """Operands have incompatible dimensions."""


class InvalidInput(ValueError):
    """Non-finite coordinates, bad weights, or malformed arguments."""


class PotentialOverflow(OverflowError):
    """exp(a(x, y)) overflows float64; carries the offending pair."""

    def __init__(self, a_value, x, y):
        self.a_value = a_value
        self.x = x
        self.y = y
        super().__init__(
            f"similarity {a_value!r} overflows exp(); offending pair x={x!r}, y={y!r}"
        )


class UnboundedDomainUnsupported(ValueError):
    """Regularity statistics need a bounded domain for this potential kind."""


class SupportTooLarge(ValueError):
    """Instance exceeds the documented desk-scale support limits."""


class RequiresCompactDomain(ValueError):
    """A bounded-domain contraction formula was invoked on an unbounded box."""


class DegeneratePotential(ValueError):
    """eps(G) <= 0, so a contraction formula dividing by it is undefined."""


class ConfigError(ValueError):
    """CLI / JSON configuration is malformed or carries unknown fields."""
