"""Exception types shared across the package."""


class SstKitError(Exception):
    """Base class for every error raised by this library."""


class ParseError(SstKitError):
    """Malformed transducer document.  Every fault that ``parse_sst`` finds
    is one, with the 1-based ``line`` and, where it points at a token, the
    ``column`` in code points, both also put first in the message; raised
    elsewhere, they are None."""

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


class CopylessError(ParseError):
    """A variable occurs more than once across the images of an update or
    in a final output; in a document, located at the repeated occurrence."""

    def __init__(self, variable: str, message: str | None = None, *location: int | None):
        self.variable = variable
        super().__init__(message or f"variable {variable!r} occurs more than once", *location)


class UnknownSymbolError(ParseError):
    """Reference to an undeclared state, letter, or variable; in a document,
    located at the name."""


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
    """A bad argument: an input letter outside the alphabet (run
    enumeration, ``outputs`` and what is built on them), a cut bound ``C``
    below 1, a selector count ``k`` below 1 (``decompose_selectors``), an
    output count ``m`` below 1 (``amplify_valuedness``), a ``SearchBudget``
    field or ``Budget`` limit that is negative or not an ``int``, a negative
    ``min_len`` (``words_over`` and the scans), a step or output position
    outside a run, a bad parameter structure or assignment in a word
    inequality, or two transducers over different alphabets
    (``check_equivalence_bounded``).  Also a ``ValueError``."""
