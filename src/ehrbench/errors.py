"""Exception hierarchy shared across the harness, the one reader of input
files, which places every error it sees at a file and line, and the float
conversion behind its finite-number checks.

There is one class per way the program reacts. A class is kept only if
code catches it by name, if README's endpoint table names its failure
kind, or if it is one of the two kinds that every loader and validator
raises: ``ParseError`` (a file's text) and ``InvariantViolation`` (a value
that breaks a rule). No output names a class: the CLI prints
``error: <message>``, and a transcript or report holds the message alone.
"""

import contextlib
import json
import math


class EhrBenchError(Exception):
    """Base class: ``cli.main`` and ``open_text`` catch it."""


class ParseError(EhrBenchError):
    """A file's text is not in its format: every loader raises it."""


class InvariantViolation(EhrBenchError):
    """A value breaks a rule (which record, which rule): every validator
    raises it, and ``cli._section`` catches it to name the config section."""


class GatewayError(EhrBenchError):
    """An endpoint request failed: README's endpoint table names the kind."""


class EndpointUnreachable(GatewayError):
    """No usable connection, a timeout or a 5xx: a retried table row."""


class AuthFailure(GatewayError):
    """A 401 or 403: the table's unretried auth row."""


class RateLimited(GatewayError):
    """A 429: the table's retried rate-limit row."""


class SingleClass(EhrBenchError):
    """Only one label class is present: the bootstrap redraws on it."""


class NoPositives(EhrBenchError):
    """No positive label is present: the bootstrap redraws on it."""


class Lines:
    """The lines of one open text file, counted as they are read: ``number``
    is the last line read (0 before the first, and after ``read_whole``)."""

    def __init__(self, fh):
        self._fh = fh
        self.number = 0
        self._first = {}  # key -> the line that had it first

    def __iter__(self):
        for self.number, line in enumerate(self._fh, start=1):
            yield line

    def read_whole(self):
        """Mark the file read to its end: an error raised after this names
        the file alone, as no one line holds it."""
        self.number = 0

    def once(self, key, shown):
        """Reject a ``key`` an earlier line had; ``shown`` names it."""
        seen = self._first.setdefault(key, self.number)
        if seen != self.number:
            raise ParseError(f"{shown} repeats line {seen}")


@contextlib.contextmanager
def open_text(path, newline=None):
    """Read a UTF-8 text file as ``Lines``. An ``EhrBenchError`` raised in
    the block is raised again, as the same class, naming the file and the
    last line read; a byte sequence that is not UTF-8 raises ``ParseError``
    naming the file, not ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        lines = Lines(fh)
        try:
            yield lines
        except UnicodeDecodeError as exc:
            # decoding runs ahead of the line count
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") \
                from None
        except EhrBenchError as exc:
            where = f", line {lines.number}" if lines.number else ""
            raise type(exc)(f"{path}{where}: {exc}") from None


def jsonl_objects(lines):
    """Yield the object on every non-blank line of JSONL ``Lines``: a cohort
    or an embeddings file."""
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc)) from None
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object")
        yield obj


def as_float(value):
    """``float(value)``, except that an int too large for a float gives inf
    or -inf, as a numeric string too large for one does, so the finite
    checks reject it instead of raising ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
