"""Exception hierarchy shared across the package.

Everything physics-related derives from :class:`PhysicsError` so the CLI can
map it to a single exit code.
"""


class MDFieldsError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MDFieldsError):
    """A model or configuration parameter is out of its admissible range."""


class PhysicsError(MDFieldsError):
    """A numerical/physical precondition failed during a computation."""


class CoincidentPointsError(PhysicsError):
    """Two particles coincide; pair directions are undefined."""


class DegenerateSpectrumError(PhysicsError):
    """Adjacent eigenvalues closer than the degeneracy tolerance."""


class ResidualTooLargeError(PhysicsError):
    """A linear-system residual exceeded its tolerance."""


class NoConvergenceError(PhysicsError):
    """An iterative solver failed to converge."""


class BlowUpError(PhysicsError):
    """Trajectory coordinates exceeded the blow-up threshold."""


class ResolutionError(PhysicsError):
    """Wavepacket momentum support too close to the grid Nyquist limit."""


class UnsupportedSymbolError(MDFieldsError):
    """Weyl quantization requested for an unsupported momentum degree."""


class GridTooLargeError(MDFieldsError):
    """Dense operator assembly requested on too large a grid."""


class InsufficientOverlapError(PhysicsError):
    """Reweighting effective sample size too small to be trusted."""


class UnattainableTargetError(PhysicsError):
    """Thermodynamic matching could not reach the requested target."""


class IdentityGapError(PhysicsError):
    """Canonical and pre-split flux divergences differ beyond rounding."""


def item_label(index):
    """The ``"item k: "`` prefix that names item k of a stacked call in a
    message; ``""`` for a single call (``index`` None)."""
    return "" if index is None else f"item {index}: "
