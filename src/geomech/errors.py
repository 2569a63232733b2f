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
    """One variational step rotates by an angle of pi or more, where the
    midpoint of the step is undefined (reduce dt)."""


class SingularInputError(GeomechError):
    """Matrix is singular or orientation-reversing; no polar rotation factor."""


class NoConvergenceError(SolverError):
    """Implicit solver failed to reach the requested residual tolerance."""


class DivergenceError(SolverError):
    """A stepped state left the domain of the model (non-finite entries, or
    an attitude that no longer preserves orientation)."""


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


# floating-point events trapped as divergence in the quadrotor run (see _step_failure)
_TRAP_FP = {"over": "raise", "invalid": "raise", "divide": "raise"}
_STEP_ERRORS = (ArithmeticError, MemoryError, GeomechError)  # what step loops hand _step_failure


def _step_failure(exc: Exception, k: int, dt: float) -> SolverError:
    """The error ``exc`` raised inside step ``k`` of a run loop, naming the step.

    Each step checks its float state; the quadrotor run's numpy runs under
    ``_TRAP_FP``.  An ``ArithmeticError`` (a trapped floating-point event, a
    float overflow or a division by zero), or a polar factor that meets
    ``det <= 1e-12`` (``SingularInputError``), means the state is leaving
    every finite bound and is reported as divergence; a ``MemoryError`` as
    out of memory.  Solver errors keep their class; any other library error
    becomes a ``SolverError``.
    """
    where = f"step {k} (t={k * dt:.6g})"
    if isinstance(exc, MemoryError):
        return SolverError(f"{where}: out of memory")
    if isinstance(exc, (ArithmeticError, SingularInputError)):
        return DivergenceError(f"{where}: state diverged: {exc}")
    kind = type(exc) if isinstance(exc, SolverError) else SolverError
    return kind(f"{where}: {exc}")
