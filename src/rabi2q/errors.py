"""Exception types shared across the package."""


class Rabi2qError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(Rabi2qError, ValueError):
    """Invalid input: a run configuration or an argument out of range
    (CLI exit code 2)."""


class ConvergenceFailure(Rabi2qError):
    """An iterative eigensolver did not converge within its budget."""


class TruncationInsufficient(Rabi2qError):
    """The photon-number cutoff is too small for the requested quantity."""


class SingularCoupling(Rabi2qError):
    """|g1| == |g2|: the off-diagonal blocks are not invertible."""


class OverflowDetected(Rabi2qError):
    """A recurrence diverged past the representable range."""


class StepSingular(Rabi2qError):
    """A recurrence step requires division by a vanishing coefficient."""


class DegenerateResolvent(Rabi2qError):
    """The closed-form quartic resolvent degenerates; use the eigensolver."""


class InvalidDensityMatrix(Rabi2qError):
    """A density matrix has a negative eigenvalue beyond tolerance."""
