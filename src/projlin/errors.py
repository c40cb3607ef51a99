"""Exception types raised across the package.

Each class names the condition that was violated, so callers (and the CLI)
can report failures by name without string matching.  Every integer
argument goes through the one check, :func:`_integer`, and every sequence
argument through :func:`_iterable`.
"""

import operator
from collections.abc import Iterable


class ProjlinError(Exception):
    """Base class for every error raised by this package."""


class BadRoot(ProjlinError):
    """The designated root is not a usable vertex of the tree."""


class MultipleHeads(ProjlinError):
    """Some vertex was given more than one parent."""


class CycleDetected(ProjlinError):
    """The parent links contain a directed cycle."""


class Disconnected(ProjlinError):
    """Not every vertex is reachable from the root."""


class SizeMismatch(ProjlinError):
    """A tree and an arrangement do not cover the same vertex set."""


class OutOfRange(ProjlinError, ValueError):
    """An argument is outside its documented domain (also a ValueError)."""


class UnsupportedSize(ProjlinError):
    """A tree-class constructor cannot produce a tree of the requested size."""


class CapExceeded(ProjlinError):
    """The requested computation exceeds a configured safety cap."""


class ZeroExact(ProjlinError):
    """A relative error was requested against an exact value of zero."""


class MalformedLine(ProjlinError):
    """A malformed CoNLL-U token line.  Never raised: ``parse_conllu`` skips
    its sentence with a reason that starts ``"MalformedLine: "``."""


class UnreadableInput(ProjlinError):
    """An input file cannot be opened, or is not UTF-8 text."""


class UnwritableOutput(ProjlinError):
    """An output file cannot be created."""


def _integer(value, name: str, least: int, error: type[ProjlinError] = OutOfRange) -> int:
    """``value`` as an int by ``operator.index``, so numpy integers pass;
    raises ``error``, naming ``name``, for a non-integer or one below ``least``."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    wording = "positive" if least else "non-negative"
    raise error(f"{name} must be a {wording} integer, got {value!r}")


def _iterable(value, name: str, items: str) -> Iterable:
    """``value`` if it can be iterated; else OutOfRange, naming ``name``
    and the ``items`` it must hold."""
    if isinstance(value, Iterable):
        return value
    raise OutOfRange(f"{name} must be an iterable of {items}, got {value!r}")
