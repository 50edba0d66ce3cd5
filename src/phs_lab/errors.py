"""Exception types shared across the package."""


class PhsLabError(Exception):
    """Base class for all library errors."""


class ModelEvaluationError(PhsLabError):
    """Raised when a model evaluation produces a non-finite or undefined value.

    Carries the offending state, or block of states, so callers can report
    where the model broke down.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class SimulationDivergedError(PhsLabError):
    """Raised when an integration run cannot be continued.

    ``last_valid_time`` is the largest time for which the solver still held a
    finite state.
    """

    def __init__(self, message, last_valid_time):
        super().__init__(f"{message} (last valid time t={last_valid_time:.6g})")
        self.last_valid_time = last_valid_time


class ConditioningError(PhsLabError):
    """Raised when a Gram matrix cannot be factorized even after jitter escalation."""


class TrainingError(PhsLabError):
    """Raised when every optimizer restart fails to produce a usable model."""


class SynthesisError(PhsLabError):
    """Raised when a controller cannot be synthesized (e.g. G^T G singular)."""


class PlanError(PhsLabError):
    """Raised when a reference plan cannot be built or read.

    The causes are a malformed plan problem, an invalid-input exit of the
    trust-region fit of the matching equation, or a time outside the plan's
    range.
    """

    def __init__(self, message, time=None, residual=None):
        if time is not None:
            message = f"{message} (t={time:.6g}, residual norm={residual:.3e})"
        super().__init__(message)
        self.time = time
        self.residual = residual


class ConfigError(PhsLabError):
    """Raised on invalid experiment configuration; maps to CLI exit code 2."""


class StageError(PhsLabError):
    """Raised when a pipeline stage fails; names the stage, maps to exit code 1."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
