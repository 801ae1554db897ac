"""Exception hierarchy shared by all bayes_cpd modules."""


class BayesCpdError(Exception):
    """Base class for all library errors.

    ``record`` is the 1-based index of the record an error blames, 0 for a
    grid row, or None when no one record is to blame.
    """

    def __init__(self, *args, record: int | None = None):
        super().__init__(*args)
        self.record = record


class StructuralError(BayesCpdError, ValueError):
    """Malformed input: wrong shapes, empty sequences, bad invariants."""


class NumericError(BayesCpdError, ArithmeticError):
    """Non-finite values, overflow, or underflow in a numeric kernel."""


class DomainError(BayesCpdError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateInputError(BayesCpdError, ValueError):
    """Input is structurally valid but statistically degenerate."""


class CsvFormatError(StructuralError):
    """Malformed CSV file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
