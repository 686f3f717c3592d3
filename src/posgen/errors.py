"""Exception types shared across the toolkit."""


class DimensionMismatch(ValueError):
    """Input is not square, or two operands act on different algebras."""


class SchemaError(ValueError):
    """A JSON payload failed validation; the message names the offending field."""


class ResolventPoleError(ValueError):
    """Resolvent requested at (or numerically too close to) a spectral point."""


class PropagatorOverflow(ValueError):
    """A semigroup or resolvent map has entries beyond double precision.

    The message names the time t (or the resolvent point) where it happened.
    """


class HypothesisViolation(RuntimeError):
    """A theorem's standing hypothesis fails for the given generator.

    Raised with the offending margin in the message so callers can report the
    input as out-of-scope rather than as a counterexample.
    """


class ConsistencyError(RuntimeError):
    """Two independently computed routes to the same quantity disagree."""
