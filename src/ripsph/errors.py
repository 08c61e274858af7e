"""Exception types shared across the package."""


class RipsphError(Exception):
    """Base class for all package errors."""


class MalformedRecord(RipsphError):
    """A PDB ATOM record could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptySelection(RipsphError):
    """No atoms matched the selection."""


class RaggedRows(RipsphError):
    """CSV rows have inconsistent widths."""


class NonNumeric(RipsphError):
    """A CSV field failed numeric parsing."""

    def __init__(self, line_number: int, field: str):
        super().__init__(f"line {line_number}: non-numeric field {field!r}")
        self.line_number = line_number


class NotSquare(RipsphError):
    """Distance matrix is not square."""


class DimensionTooLarge(RipsphError):
    """Requested homology dimension exceeds what the point count supports."""


class InvalidFiltration(RipsphError):
    """A simplex repeats, or one of its faces is missing or does not precede
    it: in a filtration's order, or in a complex that is not closed."""


class NotACycle(RipsphError):
    """Chain passed where a cycle was required."""


class EmptyDiagram(RipsphError):
    """Rendering requires at least one persistence pair."""
