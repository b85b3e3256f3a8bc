"""Exception hierarchy and diagnostics shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class QgclError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(QgclError):
    """A matrix does not have the required shape (e.g. non-square input)."""


class LayoutError(QgclError):
    """Register layouts disagree: unknown variable, dimension clash, bad order."""


class CapacityError(QgclError):
    """A computation would exceed the configured dimension or depth bound."""


class DomainClashError(QgclError):
    """Two classical states with overlapping domains were concatenated."""


class ArityError(QgclError):
    """A construct received the wrong number of operands."""


class ContractError(QgclError):
    """A value violates an operation's stated contract (non-unitary input,
    mismatched representative, invalid observable, ...)."""


class UnsupportedConstructError(QgclError):
    """The construct has no semantics at the requested level (e.g. a
    probabilistic choice as a semi-classical function)."""


@dataclass(frozen=True)
class Span:
    """Half-open source region; line/column are 1-based."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    """One located well-formedness or syntax problem.

    ``code`` identifies the class of problem and is stable across releases so
    tests and tools can match on it.
    """

    code: str
    message: str
    span: Span | None = None

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span is not None else ""
        return f"{where}{self.code}: {self.message}"


class SourceError(QgclError):
    """Parse or well-formedness failure carrying one or more diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))
