"""Exception hierarchy shared across the harness, the one reader of input
files, which places every error it sees at a file and line, and the float
conversion behind its finite-number checks."""

import contextlib
import json
import math


class EhrBenchError(Exception):
    """Base class for all harness errors."""


# --- data loading / validation ---

class SchemaMismatch(EhrBenchError):
    """Input file columns do not match the declared schema."""


class ParseError(EhrBenchError):
    pass


class Lines:
    """The lines of one open text file, counted as they are read: ``number``
    is the last line read (0 before the first)."""

    def __init__(self, fh):
        self._fh = fh
        self.number = 0
        self._first = {}  # key -> the line that had it first

    def __iter__(self):
        for self.number, line in enumerate(self._fh, start=1):
            yield line

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


class InvariantViolation(EhrBenchError):
    """A record violates a structural invariant (which record, which rule)."""


class DegenerateClass(EhrBenchError):
    """A label class has fewer members than the number of requested splits."""


class MissingGroupStats(EhrBenchError):
    """In-context example synthesis lacks statistics for an outcome group."""


class UnknownSample(EhrBenchError):
    """Requested sample_id is not in the cohort."""


# --- gateway ---

class GatewayError(EhrBenchError):
    pass


class EndpointUnreachable(GatewayError):
    pass


class AuthFailure(GatewayError):
    pass


class RateLimited(GatewayError):
    pass


class EmptyInput(EhrBenchError):
    pass


# --- metrics ---

class SingleClass(EhrBenchError):
    """Both label classes are required but only one is present."""


class NoPositives(EhrBenchError):
    pass


class ConstantInput(EhrBenchError):
    pass


class ZeroVector(EhrBenchError):
    pass


class OutOfRange(EhrBenchError):
    pass


# --- ICD hierarchy ---

class UnknownCode(EhrBenchError):
    pass


class TooFewItems(EhrBenchError):
    pass
