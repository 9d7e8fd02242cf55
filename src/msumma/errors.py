"""Exception hierarchy shared across the package."""


class MsummaError(Exception):
    """Base class for all structured errors raised by msumma."""


class KappaMismatchError(MsummaError):
    """Two ramified series with different root orders were combined."""


class MomentPoleError(MsummaError):
    """A moment function was evaluated at a pole of a gamma factor."""


class UnsupportedKernelError(MsummaError):
    """No closed-form kernel pair exists for this moment function."""


class UnsupportedRangeError(MsummaError):
    """Argument outside the validated evaluation range or sector."""


class GridError(MsummaError):
    """An exponent shift does not land on the ramification grid."""


class TruncationError(MsummaError):
    """Truncation budget of the input series is insufficient."""


class DecompositionError(MsummaError):
    """Root decomposition is unsupported for this problem."""


class RayBlockedError(MsummaError):
    """The integration ray passes through a detected singularity cone."""


class ResummationError(MsummaError):
    """The Laplace integral gave a value or an error that is not finite."""


class SectorError(MsummaError):
    """Evaluation point lies outside the admissible sector."""


class ParseError(MsummaError):
    """Positioned syntax error in the problem DSL."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        if isinstance(expected, str):
            expected = (expected,)
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, col {col}: {message}{hint}")


class SemanticError(MsummaError):
    """The problem file parses but is not a valid problem."""
