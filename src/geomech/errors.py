"""Exception hierarchy for the geomech library."""

from __future__ import annotations


class GeomechError(Exception):
    """Base class for all geomech errors."""


class InvalidRotationError(GeomechError):
    """Matrix fails the SO(3) invariants (orthonormality / unit determinant)."""


class NotSkewError(GeomechError):
    """Matrix passed to ``vee`` is not skew-symmetric within tolerance."""


class SolverError(GeomechError):
    """A run failed after its inputs validated (CLI exit code 3)."""


class DegenerateMeanError(SolverError):
    """Rotation pair is (numerically) antipodal; the polar mean is undefined."""


class SingularInputError(GeomechError):
    """Matrix is singular or orientation-reversing; no polar rotation factor."""


class NoConvergenceError(SolverError):
    """Implicit solver failed to reach the requested residual tolerance."""


class AntipodalError(SolverError):
    """Attitude error is at 180 degrees, where the control law is undefined."""


class DegenerateHeadingError(GeomechError):
    """Heading hint is parallel to the commanded thrust axis."""


class ZeroForceError(GeomechError):
    """Commanded force vector is too small to define an attitude."""


class ZeroRotorSpeedError(GeomechError):
    """Rotor angular speed must be positive for coefficient evaluation."""


class ScenarioParseError(GeomechError):
    """Scenario text is not well-formed (position and message included)."""


class ScenarioValidationError(GeomechError):
    """Scenario violates one or more field invariants.

    ``violations`` lists every ``(field, message)`` pair found, not just the
    first.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{field}: {msg}" for field, msg in self.violations)
        super().__init__(f"invalid scenario ({lines})")
