"""Exception types shared across the package."""


class SstKitError(Exception):
    """Base class for every error raised by this library."""


class ParseError(SstKitError):
    """Malformed transducer document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)


class CopylessError(SstKitError):
    """A variable occurs more than once across the images of an update.

    The parser sets ``line`` and ``column`` (1-based) to where the repeated
    occurrence stands in the document; elsewhere they are None.
    """

    def __init__(self, variable: str, message: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.variable = variable
        self.line = line
        self.column = column
        super().__init__(message or f"variable {variable!r} occurs more than once")


class UnknownSymbolError(SstKitError):
    """Reference to an undeclared state, letter, or variable.

    The parser sets ``line`` and ``column`` (1-based) to where the name
    stands in the document; elsewhere they are None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)


class VariableSetMismatchError(SstKitError):
    """Two updates over different variable sets were combined."""


class RunError(SstKitError):
    """Invalid run: broken state chaining, or an operation needed an accepting run."""


class BudgetExceededError(SstKitError):
    """An enumeration or search exceeded its node budget."""


class InputMismatchError(SstKitError):
    """Two runs were required to consume the same input but do not."""


class OutputMismatchError(SstKitError):
    """Two runs were required to produce the same output but do not."""


class NotIdempotentError(SstKitError):
    """An update without an idempotent skeleton was used where a loop is required."""


class ParameterError(SstKitError, ValueError):
    """A bad argument: a cut bound ``C`` below 1, a selector count ``k``
    below 1 (``decompose_selectors``), an output count ``m`` below 1
    (``amplify_valuedness``), a negative ``SearchBudget`` field, a step or
    output position outside a run, or a bad parameter structure or
    assignment in a word inequality.  Also a ``ValueError``."""
