"""Exact arithmetic in the Chow group of complex projective space.

The rational Chow group of P^n is free on the classes [P^0], ..., [P^n];
its cohomology is Q[H]/(H^{n+1}) with H the hyperplane class.  Both are
stored as dense coefficient vectors of integer numerators over one
denominator, so every operation is a truncated polynomial product on
integers and all results are exact: re-running a computation yields
bit-identical rationals.  Kernels read rational scalars as integer pairs
(``_pair``), and ``Fraction`` appears only at the edges.

Grading convention: :class:`GradedClass` stores the coefficient of
[P^{n-k}] at index k, i.e. classes are indexed by *codimension* in P^n.
Capping a class with a series in H is then plain truncated convolution.

The dual (sign alternation) and twist (line-bundle rescaling) operators
take the dimension of an ambient variety M as a parameter, because each
graded piece transforms through its codimension *in M*; the default is
M = P^n itself.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, count, islice
from math import gcd, lcm
from operator import mul, neg

from .errors import (
    DimensionMismatchError,
    InputParseError,
    NonUnitError,
    ValidationError,
)

Rational = Fraction

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")
_ZERO = Fraction(0)  # shared: most wire coefficients are "0"
_CHUNK_DIGITS = 600  # below 640, the least int-string limit Python allows
_MAX_DIGITS = 20_000  # the most digits of one integer in a wire literal, leading zeros included


def _is_int(value) -> bool:
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what, low=0, error=ValidationError) -> int:
    """The one integer rule for arguments: value itself if it is an int, not
    a bool, and at least low (any int when low is None); error otherwise."""
    if not _is_int(value):
        raise error(f"{what} must be an integer, got {type(value).__name__}")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}")
    return value


def _check_ambient_dim(value, what, low=0) -> int:
    """_check_int for an ambient dimension n, also below sys.maxsize: past it no
    vector of n + 1 entries can be indexed, and loops of size n never end."""
    if _check_int(value, what, low) >= sys.maxsize:
        raise ValidationError(f"{what} must be below {sys.maxsize}")
    return value


def as_rational(value) -> Fraction:
    """Coerce a programmatic value (Fraction, int, or literal string) exactly.

    Floats are rejected: they would silently smuggle rounding into an
    exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValidationError(f"expected an exact rational, got {type(value).__name__}")


def _pair(value) -> tuple[int, int]:
    """(p, q), q > 0 in lowest terms: an int or Fraction as it is, else as as_rational reads it."""
    return (value if type(value) in (int, Fraction) else as_rational(value)).as_integer_ratio()


def _int(digits: str) -> int:
    """int(digits) for a signed decimal string of any length.  Past the
    interpreter's int-string digit limit it is read in chunks of
    _CHUNK_DIGITS, the mirror of _digits."""
    try:
        return int(digits)
    except ValueError:
        pass
    body = digits.lstrip("+-")
    head = len(body) % _CHUNK_DIGITS or _CHUNK_DIGITS
    value, scale = int(body[:head]), 10**_CHUNK_DIGITS
    for start in range(head, len(body), _CHUNK_DIGITS):
        value = value * scale + int(body[start : start + _CHUNK_DIGITS])
    return -value if digits[0] == "-" else value


def _literal(value) -> tuple[int, int]:
    """The integers (p, q), q > 0, of a wire rational "p" or "p/q" (or an int), unreduced."""
    if not isinstance(value, str):
        if _is_int(value):
            return value, 1
        raise InputParseError(
            f"rational must be a string 'p' or 'p/q', got {type(value).__name__}"
        )
    if value.isdecimal() and len(value) <= _MAX_DIGITS:  # digits alone: as the match reads them
        return _int(value), 1
    match = _RATIONAL_RE.fullmatch(value.strip())
    if not match:
        raise InputParseError(f"bad rational literal {value!r}")
    num, den = match.groups()
    if max(len(num.lstrip("+-")), len(den or "")) > _MAX_DIGITS:
        raise InputParseError(f"rational literal too long: more than {_MAX_DIGITS} digits")
    return _int(num), _int(den) if den else 1


def parse_rational(value) -> Fraction:
    """Parse the wire form of a rational: the string "p" or "p/q" (or an int)."""
    return _ZERO if value == "0" else Fraction(*_literal(value))


def _digits(value: int) -> str:
    """Decimal form of an int of any size.  Past the interpreter's
    int-string digit limit it is written in chunks of _CHUNK_DIGITS."""
    try:
        return str(value)
    except ValueError:
        pass
    chunks, rest = [], abs(value)
    while rest:
        rest, low = divmod(rest, 10**_CHUNK_DIGITS)
        chunks.append(low)
    head = ("-" if value < 0 else "") + str(chunks.pop())
    return head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def _wire(num: int, den: int) -> str:
    """Wire form of num/den, den > 0: "p" or "p/q" in lowest terms, by one gcd."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def format_rational(value: Fraction) -> str:
    """Wire form of a rational: "p" or "p/q" with q > 0 in lowest terms."""
    return _wire(value.numerator, value.denominator)


def _encode(value):
    """Wire form of a result: strings and ints (wire leaves) as they are, dicts,
    lists and tuples entry by entry, rationals as strings, objects by ``to_json``."""
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, Fraction):  # after the concrete types: this check runs through ABCMeta
        return format_rational(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def _render(value) -> str:
    """Table form of a result: rationals in wire form, dicts as {k: v},
    lists and tuples as [...], anything else (a class) by ``str``."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def _check_keys(data, required, optional=frozenset(), what="object"):
    if not isinstance(data, dict):
        raise InputParseError(f"{what} must be a JSON object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise InputParseError(f"unknown key(s) in {what}: {', '.join(sorted(unknown))}")
    missing = set(required) - set(data)
    if missing:
        raise InputParseError(f"missing key(s) in {what}: {', '.join(sorted(missing))}")


def _gather(pairs) -> tuple[list[int], int]:
    """A list of integer pairs (p, q), q > 0, as numerators over the lcm of
    the q, and that lcm: the one way from rationals to the integer form."""
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


_DENSE_MIN_N = 12  # below it the zero-skipping loop is about as fast on dense operands
_PACK_MIN_N = 64  # below it a packed product loses to the C sums at 300 bits and more
_PACK_MAX_BITS = 256  # largest entries' bits of both operands: past it the C sums win at n = 64
_DENSE_DEGREE_BITS = 16  # a wider twist degree p/q divides and multiplies more than it saves
_TABLE_MAX_N = 240  # a twist table holds n^2/2 binomials: at most 2.2 MiB for n <= 240, |e| <= 2n


def _bits(v) -> int:
    """The bit length of the largest |entry| of an integer vector."""
    return max(max(v).bit_length(), min(v).bit_length())


def _dense(n, zeros) -> bool:
    """At most (n+1)/5 zero entries on P^n, from n = _DENSE_MIN_N on: both kernels sum in C."""
    return n >= _DENSE_MIN_N and 5 * zeros <= n + 1


def _conv_path(a, b) -> tuple:
    """_convolve's path for a and b, with its arguments: packed from n = _PACK_MIN_N on for
    _dense operands whose largest entries' bit lengths sum to at most _PACK_MAX_BITS,
    summed for other _dense operands, and the loop for any others."""
    n = len(a) - 1
    if _dense(n, a.count(0) + b.count(0)):
        if n >= _PACK_MIN_N and (bits := _bits(a) + _bits(b)) <= _PACK_MAX_BITS:
            return _packed_convolve, (a, b, bits)
        return _summed_convolve, (a, b)
    return _looped_convolve, (a, b)


def _convolve(a, b) -> list[int]:
    """Truncated product of two integer vectors of equal length n+1: entry k is
    the sum of a[i] * b[j] over i + j = k, for k <= n, by _conv_path's path."""
    path, args = _conv_path(a, b)
    return path(*args)


def _looped_convolve(a, b) -> list[int]:
    """_convolve skipping the zeros of both operands, so the loop visits only pairs of nonzero
    entries, whichever operand is the sparse one: one-piece, sparse and small ones are faster so."""
    n = len(a) - 1
    inner = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in inner:
            if i + j > n:
                break
            out[i + j] += x * y
    return out


def _summed_convolve(a, b) -> list[int]:
    """_convolve with entry k summed in C: one sum(map(mul, ...)) of a against b[k], ..., b[0]."""
    n = len(a) - 1
    rb = b[::-1]
    return [sum(map(mul, a, rb[n - k :])) for k in range(n + 1)]


def _packed_convolve(a, b, bits) -> list[int]:
    """_convolve by one product of two ints (Kronecker substitution), for
    largest entries of bits bit lengths summed.  With slots of w bytes and
    X = 2^(8w), v packs to P(v) = sum of v[i] * X^i, and P(a) * P(b) holds
    entry k of the product, below (n+1) * 2^bits <= X/2 in absolute value,
    in slot k.  Signs take no Python pass: half has X/2 in each of the n+1
    slots, and for |x| < X/2 flipping a slot's top bit turns x mod X into
    x + X/2.  So P(v) is v's two's complement bytes XOR half, minus half;
    the product plus half, masked to n+1 slots, XOR half, holds each entry
    in two's complement."""
    n = len(a) - 1
    w = (bits + n.bit_length() + 8) // 8  # 8w - 1 >= bits + log2(n+1), rounded up
    size = w * (n + 1)
    half = int.from_bytes((bytes(w - 1) + b"\x80") * (n + 1), "little")

    def pack(v):
        data = b"".join([x.to_bytes(w, "little", signed=True) for x in v])
        return (int.from_bytes(data, "little") ^ half) - half

    low = ((pack(a) * pack(b) + half) & ((1 << 8 * size) - 1)) ^ half
    data = low.to_bytes(size, "little")
    return [int.from_bytes(data[i : i + w], "little", signed=True) for i in range(0, size, w)]


def _binomials(e, size) -> list[int]:
    """C(e, 0), ..., C(e, size-1) for any integer e, negative included,
    from the exact integer step C(e, i+1) = C(e, i) * (e - i) // (i + 1)."""
    out, b = [], 1
    for i in range(size):
        out.append(b)
        b = b * (e - i) // (i + 1)
    return out


@lru_cache(maxsize=8)  # about 13 KiB at n = 24, 0.3 MiB at n = 120, 1.4-2.2 MiB at n = 240
def _twist_table(n, e) -> tuple[tuple[int, ...], ...]:
    """The dense twist's binomials by column: column j holds C(e-k, j-k)
    for k = 0, ..., j, each from column j-1's by the exact integer step
    C(a, i+1) = C(a, i) * (a-i) // (i+1), with a - i = e-j+1, and C(e-j, 0) = 1."""
    column, table = (), []
    for j in range(n + 1):
        column = (*(b * (e - j + 1) // (j - k) for k, b in enumerate(column)), 1)
        table.append(column)
    return tuple(table)


def _twist_path(nums, e, p, q):
    """twist's path for pieces nums, e = n - m and lambda = p/q: the table for a _dense class with
    n <= _TABLE_MAX_N, |e| <= 2n and lambda != 0 of p, q of at most _DENSE_DEGREE_BITS bits."""
    n = len(nums) - 1
    narrow = 0 < p.bit_length() <= _DENSE_DEGREE_BITS and q.bit_length() <= _DENSE_DEGREE_BITS
    if narrow and n <= _TABLE_MAX_N and abs(e) <= 2 * n and _dense(n, nums.count(0)):
        return _tabled_twist
    return _rowed_twist


def _tabled_twist(nums, e, p, q) -> list[int]:
    """twist's numerators over q^n summed in C like a dense cap: lambda^(j-k) = lambda^j *
    lambda^(-k), so with A_k = N_k * q^k * p^(n-k) entry j is sum(map(mul, A, column j of
    _twist_table(n, e))) divided exactly by p^(n-j) and times q^(n-j); A = N when lambda = 1.
    A and the divisions grow with p and q: past _DENSE_DEGREE_BITS the rows are faster."""
    n = len(nums) - 1
    columns = _twist_table(n, e)
    if p == q:  # lambda = 1: no scaling
        return [sum(map(mul, nums, c)) for c in columns]
    scaled = [x * q**k * p ** (n - k) for k, x in enumerate(nums)]  # A_k
    return [sum(map(mul, scaled, c)) // p ** (n - j) * q ** (n - j) for j, c in enumerate(columns)]


def _rowed_twist(nums, e, p, q) -> list[int]:
    """twist's numerators over q^n by rows: N_k * C(e-k, i) * p^i * q^(n-i) is added to entry
    k+i for each nonzero piece k.  Piece k's binomial row is piece k-1's stepped by Pascal's
    rule C(e-1, i) = C(e, i) - C(e-1, i-1) if piece k-1 is nonzero, else fresh."""
    n = len(nums) - 1
    scale = [p**i * q ** (n - i) for i in range(n + 1)]
    out = [0] * (n + 1)
    for k, num in enumerate(nums):
        if not num:
            continue
        # truncated at codimension n: the power is needed mod H^(n+1-k)
        if k and nums[k - 1]:
            c = 0
            row = [c := b - c for b in row[:-1]]
        else:
            row = _binomials(e - k, n + 1 - k)
        for i, b in enumerate(row):
            if b:
                out[k + i] += num * b * scale[i]
    return out


def _alternate(coeffs, shift=0) -> tuple:
    """Negate the entries at indices k with k + shift odd, by one slice assignment."""
    out, odd = list(coeffs), slice(1 - shift % 2, None, 2)
    out[odd] = map(neg, out[odd])
    return tuple(out)


class _Value:
    """An immutable value over the attributes named in ``_fields``: equal
    only to an object of the same class with equal fields, and hashed and
    printed by those fields.  Assigning or deleting an attribute raises
    ``AttributeError``; a subclass's ``__init__`` sets its fields with
    ``_init``, in ``_fields`` order, or, where objects are built often, by
    direct stores into ``self.__dict__``."""

    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> list:
        return [getattr(self, f) for f in self._fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._values()))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _CoeffVector(_Value):
    """The n+1 exact coefficients on P^n that HSeries and GradedClass share.

    One form is stored: the integer numerators ``_nums`` over ``_den > 0``
    with gcd(_den, *_nums) = 1, so ``_den`` is the least common
    denominator and the form is canonical; equality and hashing compare
    it.  Kernels read it and build their results with ``_reduce``, with no
    per-entry ``Fraction``; ``coeffs``, the tuple of reduced ``Fraction``s,
    is a view built on first read and cached (``__init__`` keeps the tuple
    it coerced; ``from_coeffs`` and the named constructors build from
    integers).  Every object passes ``__post_init__`` once.

    A subclass sets ``_wire_key`` (the JSON key of the coefficient list),
    ``_noun`` and ``_what`` (its name in messages) and ``_term`` (how one
    nonzero coefficient prints), and binds the operations it exposes to
    their public names in its own class body: ``bench/tracer.py`` wraps
    them per class, through the class ``__dict__``.
    """

    _fields = ("ambient_dim", "coeffs")  # the printed form
    _wire_key: str
    _noun: str
    _what: str

    def __init__(self, ambient_dim, coeffs):
        n = _check_int(ambient_dim, "ambient_dim")
        coeffs = self.__dict__["coeffs"] = tuple(map(as_rational, coeffs))
        nums, den = _gather([c.as_integer_ratio() for c in coeffs])
        self._fill(n, tuple(nums), den)

    def _fill(self, n, nums, den):
        fields = self.__dict__  # one access, past _Value's guard
        fields["ambient_dim"], fields["_nums"], fields["_den"] = n, nums, den
        self.__post_init__()

    @classmethod
    def _reduce(cls, n, nums, den):
        """A kernel result: nums over den > 0, brought to lowest terms by one gcd,
        the top entry first: kernels over den * q^n leave entry k divisible by
        q^(n-k), so the gcd falls to 1 soonest there and math.gcd only checks
        the rest, while from entry 0 up it stays a power of q for about n steps."""
        g = gcd(den, nums[-1], *nums)
        obj = cls.__new__(cls)
        obj._fill(n, tuple(nums) if g == 1 else tuple([x // g for x in nums]), den // g)
        return obj

    def _validate(self):
        n = self.ambient_dim
        if len(self._nums) != n + 1:
            raise ValidationError(
                f"{self._noun} on P^{n} needs {n + 1} coefficients, got {len(self._nums)}"
            )

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on first read."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    def _values(self) -> list:
        return [self.ambient_dim, self._nums, self._den]

    @classmethod
    def from_coeffs(cls, ambient_dim, values):
        """Build from coefficients by index, padding with integer zeros and discarding
        indices above n: only the given entries are read, each by _pair."""
        n = _check_ambient_dim(ambient_dim, "ambient_dim")
        nums, den = _gather([*map(_pair, islice(values, n + 1))])
        return cls._reduce(n, nums + [0] * (n + 1 - len(nums)), den)

    def _check_dim(self, other, kind=None):
        kind = kind or type(self)
        if not isinstance(other, kind):
            raise ValidationError(
                f"operand must be {kind.__name__}, not {type(other).__name__}"
            )
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _add(self, other, sign=1):
        """self + sign*other, over their least common denominator."""
        self._check_dim(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        nums = [x * sa + y * sb for x, y in zip(self._nums, other._nums)]
        return self._reduce(self.ambient_dim, nums, den)

    def _sub(self, other):
        return self._add(other, -1)

    def _neg(self):
        return self._reduce(self.ambient_dim, [-x for x in self._nums], self._den)

    def _scale(self, scalar):
        p, q = _pair(scalar)
        return self._reduce(self.ambient_dim, [p * x for x in self._nums], self._den * q)

    def _to_json(self) -> dict:
        nums, den = self._nums, self._den  # an integer class is written with no gcd
        wire = [*map(_digits, nums)] if den == 1 else [_wire(x, den) if x else "0" for x in nums]
        return {"ambient_dim": self.ambient_dim, self._wire_key: wire}

    @classmethod
    def _wire_nums(cls, data) -> tuple[int, list, int]:  # ambient_dim n, n+1 numerators, lcm
        _check_keys(data, {"ambient_dim", cls._wire_key}, what=cls._what)
        n = _check_int(data["ambient_dim"], "ambient_dim", error=InputParseError)
        values = data[cls._wire_key]
        if not isinstance(values, list) or len(values) != n + 1:
            raise InputParseError(
                f"{cls._wire_key} must list exactly {n + 1} entries for ambient_dim {n}"
            )
        try:  # integer literals, read in one int pass over denominator 1
            text = "".join(values)  # TypeError unless every entry is a str
            short = len(text) <= _MAX_DIGITS or max(map(len, values)) <= _MAX_DIGITS
            if short and "_" not in text and "/" not in text:  # int() would read "1_0"
                return n, [*map(int, values)], 1
        except (TypeError, ValueError):
            pass  # the per-entry path below names the first bad entry
        read = {i: _literal(v) for i, v in enumerate(values) if v != "0"}  # "0" unparsed
        got, den = _gather([*read.values()])
        nums = [0] * (n + 1)
        for i, p in zip(read, got):
            nums[i] = p
        return n, nums, den

    def _piece(self) -> tuple:  # (n, the indices of the nonzero numerators, their sum, den)
        return self.ambient_dim, (*compress(count(), self._nums),), sum(self._nums), self._den

    @classmethod
    def _wire_piece(cls, data, c) -> tuple:  # _piece of "0"s bar one literal at c, or _wire_nums
        if isinstance(data, dict) and data.keys() == {"ambient_dim", cls._wire_key}:
            n, values = data["ambient_dim"], data[cls._wire_key]
            if _is_int(n) and isinstance(values, list) and len(values) == n + 1 > c >= 0:
                if values.count("0") + (values[c] != "0") == n + 1:  # all "0" reads (0, 1)
                    p, q = _literal(values[c])
                    return n, (c,) if p else (), p, q
        return cls._reduce(*cls._wire_nums(data))._piece()

    def _from_json(cls, data):  # each subclass binds it as a classmethod
        return cls._reduce(*cls._wire_nums(data))

    def __str__(self):
        parts = [(c, self._term(k, abs(c))) for k, c in enumerate(self.coeffs) if c]
        if not parts:
            return "0"
        text = parts[0][1] if parts[0][0] > 0 else "-" + parts[0][1]
        for c, mag in parts[1:]:
            text += (" + " if c > 0 else " - ") + mag
        return text


class HSeries(_CoeffVector):
    """A truncated polynomial in the hyperplane class H, mod H^{n+1}.

    coeffs[k] multiplies H^k; exactly n+1 entries are kept, since any
    term of degree above n is zero on P^n.
    """

    _wire_key = "coeffs_by_degree"
    _noun = _what = "series"

    __post_init__ = _CoeffVector._validate
    __add__ = _CoeffVector._add
    __sub__ = _CoeffVector._sub
    __neg__ = _CoeffVector._neg
    to_json = _CoeffVector._to_json
    from_json = classmethod(_CoeffVector._from_json)

    @classmethod
    def one(cls, ambient_dim) -> "HSeries":
        return cls.from_coeffs(ambient_dim, [1])

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def __mul__(self, other):
        if isinstance(other, HSeries):
            self._check_dim(other)
            return HSeries._reduce(
                self.ambient_dim, _convolve(self._nums, other._nums), self._den * other._den
            )
        return self._scale(other)

    __rmul__ = __mul__

    def inverse(self) -> "HSeries":
        """Multiplicative inverse mod H^{n+1}, by the convolution recurrence on
        integers: with A_i = _nums[i], B_0 = 1 and B_k = -sum_{i>=1} A_i *
        B_(k-i) * A_0^(i-1), coefficient k is den * B_k / A_0^(k+1), all over
        |A_0^(n+1)|."""
        a, n = self._nums, self.ambient_dim
        if not a[0]:
            raise NonUnitError("cannot invert a series with zero constant term")
        steps = [(i, x * a[0] ** (i - 1)) for i, x in enumerate(a) if i and x]
        b = [1]
        for k in range(1, n + 1):
            b.append(-sum(t * b[k - i] for i, t in steps if i <= k))
        top = a[0] ** (n + 1)
        den = self._den if top > 0 else -self._den  # the sign moves to the numerators
        return HSeries._reduce(n, [den * x * a[0] ** (n - k) for k, x in enumerate(b)], abs(top))

    def __pow__(self, exponent: int) -> "HSeries":
        _check_int(exponent, "series exponent", low=None)
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = HSeries.one(self.ambient_dim)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def cap(self, cls: "GradedClass") -> "GradedClass":
        """Cap product with a graded class: convolution by codimension,
        with the class, often a single piece, as the outer operand."""
        self._check_dim(cls, GradedClass)
        return GradedClass._reduce(
            self.ambient_dim, _convolve(cls._nums, self._nums), cls._den * self._den
        )

    @staticmethod
    def _term(k, mag):
        if k == 0:
            return format_rational(mag)
        h = "H" if k == 1 else f"H^{k}"
        return h if mag == 1 else format_rational(mag) + h


class GradedClass(_CoeffVector):
    """A rational Chow class on P^n: coeffs[k] multiplies [P^{n-k}]."""

    _wire_key = "coeffs_by_codim"
    _noun = "class"
    _what = "graded class"

    __post_init__ = _CoeffVector._validate
    __add__ = _CoeffVector._add
    __sub__ = _CoeffVector._sub
    __neg__ = _CoeffVector._neg
    __mul__ = __rmul__ = _CoeffVector._scale
    to_json = _CoeffVector._to_json
    from_json = classmethod(_CoeffVector._from_json)

    @classmethod
    def zero(cls, ambient_dim) -> "GradedClass":
        return cls.from_coeffs(ambient_dim, ())

    @classmethod
    def single(cls, ambient_dim, codim, value) -> "GradedClass":
        """The class value * [P^{n-codim}]."""
        if _check_int(codim, "codimension") > _check_ambient_dim(ambient_dim, "ambient_dim"):
            raise ValidationError(
                f"codimension {codim} out of range on P^{ambient_dim}"
            )
        p, q = _pair(value)
        return cls._reduce(ambient_dim, [0] * codim + [p] + [0] * (ambient_dim - codim), q)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def _relative_dim(self, relative_dim) -> int:
        """dim M for dual and twist: an integer, n when not given."""
        return self.ambient_dim if relative_dim is None else _check_int(relative_dim, "dim M", None)

    def dual(self, relative_dim: int | None = None) -> "GradedClass":
        """Sign-alternate each piece by its codimension in an ambient M.

        The piece of dimension p picks up (-1)^(m-p) where m = dim M;
        with m = n (the default) this flips exactly the odd-codimension
        pieces.  An involution for every m.
        """
        n = self.ambient_dim
        shift = self._relative_dim(relative_dim) - n
        return GradedClass._reduce(n, _alternate(self._nums, shift), self._den)

    def twist(
        self, bundle: "LineBundleOnPn", relative_dim: int | None = None
    ) -> "GradedClass":
        """Rescale each piece by a power of a line bundle's total Chern class.

        The piece of dimension p is multiplied by c(L)^(p-m), i.e. by (1 + lambda*H) to the power
        minus its codimension in M.  The result is regraded and truncated beyond codimension n: with
        e = n - m, entry j is the sum over k <= j of a_k * C(e-k, j-k) * lambda^(j-k), on integers
        over den * q^n for lambda = p/q and a_k = N_k/den, by _twist_path's path.
        """
        if not isinstance(bundle, LineBundleOnPn):
            raise ValidationError(
                f"twist needs a LineBundleOnPn, got {type(bundle).__name__}"
            )
        n, (p, q) = self.ambient_dim, bundle.degree.as_integer_ratio()
        e = n - self._relative_dim(relative_dim)
        path = _twist_path(self._nums, e, p, q)
        return GradedClass._reduce(n, path(self._nums, e, p, q), self._den * q**n)

    # The linear-factor kernel: cap with (a + b*H), or a sum of two classes with
    # 1/(1 + lam*H), in O(n) on numerators N_k over den, for scalars as pairs.

    def mul_linear(self, a, b) -> "GradedClass":
        """The class capped with (a + b*H), a and b read by _pair."""
        return self._mul_linear(_pair(a), _pair(b))

    def _mul_linear(self, a, b) -> "GradedClass":  # with a = A/q and b = B/q for pairs a, b,
        (na, nb), q = _gather([a, b])  # entry k is (A*N_k + B*N_(k-1)) / (den*q)
        out = [na * x + nb * y for x, y in zip(self._nums, (0,) + self._nums)]
        return GradedClass._reduce(self.ambient_dim, out, self._den * q)

    def div_linear(self, lam) -> "GradedClass":
        """The class capped with 1/(1 + lam*H): _div_linear_sum with b = 0."""
        return self._div_linear_sum((1, 1), self, (0, 1), _pair(lam))

    def _div_linear_sum(self, a, other, b, lam) -> "GradedClass":
        """(a*self + b*other) capped with 1/(1 + lam*H), for pairs a, b and lam, by
        one _reduce: the sum is X_k/D over the least common D of a/den and b/den',
        and Y_k = X_k/D - lam*Y_(k-1) is C_k/(D*q^n) for lam = p/q in lowest terms and
        the integers C_k = X_k*q^n - p*C_(k-1)/q, exact since C_(k-1) carries q^(n-k+1)."""
        self._check_dim(other)
        (pa, qa), (pb, qb), (p, q) = a, b, lam
        p, q = p // (g := gcd(p, q)), q // g  # a route's product of two pairs: q^n stays small
        n, nums, den = self.ambient_dim, self._nums, self._den
        if pb:  # X_k in one pass, and a = 1; with b = 0, X_k = a*N_k in the recurrence
            (ta, tb), den = _gather([(pa, qa * den), (pb, qb * other._den)])
            nums, pa, qa = [ta * x + tb * y for x, y in zip(nums, other._nums)], 1, 1
        qn, out, c = q**n, [], 0
        scale = pa * qn
        for x in nums:
            c = x * scale - p * c // q
            out.append(c)
        return GradedClass._reduce(n, out, den * qa * qn)

    def degree_zero_part(self) -> Fraction:
        """Coefficient of the point class [P^0]."""
        return Fraction(self._nums[-1], self._den)

    def _term(self, k, mag):
        return f"{format_rational(mag)}[P^{self.ambient_dim - k}]"


class LineBundleOnPn(_Value):
    """A line bundle (or formal rational divisor) with c_1 = degree * H.

    Integer degree corresponds to an actual O(d); rational degree is
    permitted for formal divisors such as rho * X.
    """

    _fields = ("degree",)

    def __init__(self, degree):  # built once or more per route: no _init call
        self.__dict__["degree"] = as_rational(degree)

    def chern(self, ambient_dim: int, power: int = 1) -> HSeries:
        """c(L)^power = (1 + degree*H)^power on P^{ambient_dim}, for every
        integer power: with degree = p/q, a_i = C(power, i) * p^i / q^i,
        the binomial from its exact integer recurrence (negative powers
        included), all over q^n."""
        n = _check_ambient_dim(ambient_dim, "ambient_dim")
        _check_int(power, "power", low=None)
        p, q = self.degree.numerator, self.degree.denominator
        out = [b * p**i * q ** (n - i) for i, b in enumerate(_binomials(power, n + 1))]
        return HSeries._reduce(n, out, q**n)


def tangent_chern(n: int) -> HSeries:
    """c(TP^n) = (1+H)^{n+1} mod H^{n+1}, from the Euler sequence: one shared
    object per n, for the last 32 n asked for (it grows like n^2 bits)."""
    return _tangent_chern(_check_int(n, "projective dimension"))  # a bool is no key


@lru_cache(maxsize=32)
def _tangent_chern(n: int) -> HSeries:
    return LineBundleOnPn(1).chern(n, n + 1)
