"""Exception hierarchy shared by all probdiar modules."""


class ProbdiarError(Exception):
    """Base class for all toolkit errors."""


class SizeError(ProbdiarError, ValueError):
    """A combinatorial size argument is out of the supported range."""


class DomainError(ProbdiarError, ValueError):
    """A parameter value is outside its mathematical domain."""


class ShapeError(ProbdiarError, ValueError):
    """Array dimensions do not agree."""


class DecompositionError(ProbdiarError, ValueError):
    """A matrix decomposition failed (rank deficiency, non-PD input)."""


class DataError(ProbdiarError, ValueError):
    """Input data is empty, malformed or inconsistent."""


class ParseError(DataError):
    """A text file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CalibrationError(ProbdiarError, ValueError):
    """Score calibration cannot be estimated (degenerate score set)."""


class ScoringError(ProbdiarError, ValueError):
    """Diarization scoring is impossible (e.g. empty reference)."""


class TrainingError(ProbdiarError, RuntimeError):
    """Training diverged or a numerical gate (gradient check, self-test)
    failed; carries the last finite checkpoint when there is one."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint
