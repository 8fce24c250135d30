"""Domain errors raised by the library, its internal invariant check, and its type check.

Each error carries a stable ``code`` string; the CLI prefixes messages
with ``error: <code>:`` so callers can match on it.  Every int and record
the public boundary takes passes ``ensure`` once, where it is taken.
"""


def ensure(name: str, value, kind: type):
    """Return value if it is a kind, where a bool is no int; else raise TypeError naming it."""
    if type(value) is not kind and (not isinstance(value, kind) or isinstance(value, bool)):
        article = "an" if kind is int else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def require(condition: bool, context: object) -> None:
    """Raise AssertionError when an internal invariant fails, even under ``python -O``."""
    if not condition:
        raise AssertionError(context)


class DomainError(ValueError):
    """Base class for errors caused by the caller's input values."""

    code = "domain-error"


class NotATripleError(DomainError):
    """The three integers do not satisfy x^2 + y^2 = z^2."""

    code = "not-a-triple"


class NotPrimitiveError(DomainError):
    """The triple has a common factor; reduce it first (see decompose_general)."""

    code = "not-primitive"


class MalformedTripleError(DomainError):
    """The split read off a triple is not a valid split.

    ``invert``'s one post-condition; unreachable for genuine primitive triples.
    """

    code = "malformed"


class SizeLimitError(DomainError):
    """An input past a documented size limit.

    A rendered diagram would exceed the pixel size limit or round to 0 px,
    or factoring a side leaves a cofactor at or above psi_13 (about
    3.3 * 10^24) once the primes up to 2^16 are divided out, past which
    primality is not proven.
    """

    code = "size-limit"
