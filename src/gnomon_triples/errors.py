"""Domain errors of the library, its invariant and argument checks, and its record maker.

Each error carries a stable ``code`` string; the CLI prefixes messages
with ``error: <code>:`` so callers can match on it.  Every argument the public
boundary takes is checked where it is taken, and only ``ensure`` decides its
type and, where it has a least value, its size.
"""


def ensure(name: str, value, kind: type | tuple[type, ...], least: int | None = None):
    """Return value if it is a kind or one of a tuple of kinds (a bool is no int) not below
    least, a constant or another argument's value; else raise naming it."""
    if type(value) is not kind and (not isinstance(value, kind) or isinstance(value, bool)):
        kinds = " or ".join(k.__name__ for k in kind) if type(kind) is tuple else kind.__name__
        article = "an" if kinds[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{name} must be {article} {kinds}, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def record(cls: type) -> type:
    """Make a class a frozen value of its annotated fields, as ``dataclass(frozen=True)`` does.

    ``cls._unchecked(*fields)`` makes one without ``__post_init__``, for fields known valid.
    """
    names = cls.__match_args__ = tuple(cls.__annotations__)  # a class attribute is a default
    ns = {"_set": object.__setattr__, "_new": object.__new__, "_cls": cls}
    ns |= {f"{n}_": vars(cls)[n] for n in names if n in vars(cls)}
    params = ", ".join(f"{n}={n}_" if n in vars(cls) else n for n in names)
    own, their = ("".join(f"{who}.{n}, " for n in names) for who in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    sets = "".join(f"_set(self, {n!r}, {n}); " for n in names)
    exec(
        f"def __init__(self, {params}):\n    {sets}self.__post_init__()\n"  # a shared one is slower
        f"@staticmethod\ndef _unchecked({params}):\n    self = _new(_cls); {sets}return self\n"
        "def __eq__(self, other):\n    if other.__class__ is not self.__class__:\n"
        f"        return NotImplemented\n    return ({own}) == ({their})\n"
        f"def __hash__(self):\n    return hash(({own}))\n"
        f"def __repr__(self):\n    return f'{cls.__qualname__}({shown})'\n"
        "def __setattr__(self, name, value=None):\n"
        "    raise AttributeError(f'cannot set or delete {name!r}: {self!r} is immutable')\n"
        "__delattr__ = __setattr__\n", ns)
    for name in "__init__ _unchecked __eq__ __hash__ __repr__ __setattr__ __delattr__".split():
        setattr(cls, name, ns[name])
    return cls


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
