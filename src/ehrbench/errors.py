"""Exception hierarchy shared across the harness, the text and JSONL
readers that raise its ``ParseError``, and the float conversion behind its
finite-number checks."""

import contextlib
import json
import math


class EhrBenchError(Exception):
    """Base class for all harness errors."""


# --- data loading / validation ---

class SchemaMismatch(EhrBenchError):
    """Input file columns do not match the declared schema."""


class ParseError(EhrBenchError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open a UTF-8 text file for reading. A byte sequence that is not UTF-8
    raises ``ParseError`` naming the file, not ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") \
                from None


def read_jsonl(path):
    """Yield (line number, object) for every non-blank line of a JSONL file:
    a cohort or an embeddings file."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            yield lineno, obj


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
    def __init__(self, message, sample_id=None):
        if sample_id is not None:
            message = f"sample {sample_id}: {message}"
        super().__init__(message)
        self.sample_id = sample_id


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

class DuplicateCode(EhrBenchError):
    pass


class UnknownCode(EhrBenchError):
    pass


class TooFewItems(EhrBenchError):
    pass
