"""Core arithmetic: series, graded classes, dual/twist, JSON wire forms."""

import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from csmcalc import chow
from csmcalc.chow import (
    GradedClass,
    HSeries,
    LineBundleOnPn,
    _convolve,
    _wire,
    as_rational,
    format_rational,
    parse_rational,
    tangent_chern,
)
from csmcalc.errors import (
    DimensionMismatchError,
    InputParseError,
    NonUnitError,
    ValidationError,
)


def S(n, *coeffs):
    return HSeries.from_coeffs(n, coeffs)


def C(n, *coeffs):
    return GradedClass.from_coeffs(n, coeffs)


class TestRationalWireForm:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", F(3, 4)), ("-7", F(-7)), ("0", F(0)), ("10/4", F(5, 2)), ("+2", F(2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_int(self):
        assert parse_rational(-3) == F(-3)

    @pytest.mark.parametrize("bad", ["0.5", "3/-4", "1/0", "abc", "", "1/2/3", 1.5, None, True])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputParseError):
            parse_rational(bad)

    def test_format_round_trip(self):
        for q in [F(3, 4), F(-7), F(0), F(22, 7), F(-5, 3)]:
            assert parse_rational(format_rational(q)) == q

    def test_as_rational_rejects_float(self):
        with pytest.raises(ValidationError):
            as_rational(0.5)

    def test_parse_rejects_oversize_literal(self):
        # past the reader's bound on the digits of one integer
        with pytest.raises(InputParseError):
            parse_rational("1" * (chow._MAX_DIGITS + 1))
        with pytest.raises(InputParseError):
            parse_rational("1/" + "3" * (chow._MAX_DIGITS + 1))

    @pytest.mark.parametrize(
        "value,text",
        [
            # (10^3000 - 1)^2 / 7 = (10^3000 - 1) * 142857...142857
            (F(10**6000 - 2 * 10**3000 + 1, 7),
             "142857" * 499 + "142856" + "857142" * 499 + "857143"),
            (F(-(10**6000) - 1, 3), "-1" + "0" * 5999 + "1/3"),
            (F(1, 10**5000), "1/1" + "0" * 5000),
        ],
        ids=["numerator", "negative", "denominator"],
    )
    def test_format_past_digit_limit(self, value, text):
        # past the interpreter's 4,300-digit limit on int-string conversion
        assert format_rational(value) == text


_REFERENCE_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def _digit_by_digit(text):
    """The integer of a signed decimal string, one digit at a time: no
    int-string digit limit applies."""
    value = 0
    for ch in text.lstrip("+-"):
        value = 10 * value + int(ch)
    return -value if text.startswith("-") else value


def _reference_parse(value):
    """parse_rational as two steps: a syntax regex and the digit bound, then
    each integer read digit by digit."""
    if isinstance(value, int) and not isinstance(value, bool):
        return F(value)
    if not isinstance(value, str):
        raise InputParseError(f"rational must be a string 'p' or 'p/q', got {type(value).__name__}")
    text = value.strip()
    if not _REFERENCE_RE.fullmatch(text):
        raise InputParseError(f"bad rational literal {value!r}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > 20_000:
        raise InputParseError("rational literal too long: more than 20000 digits")
    return F(_digit_by_digit(num), _digit_by_digit(den) if den else 1)


def _parse_outcome(parse, value):
    try:
        got = parse(value)
    except Exception as exc:  # the outcome is compared, not raised
        return type(exc), str(exc)
    assert type(got) is F
    return got


_OVERSIZE = "7" * 4301


class TestParserMatchesTwoParserPath:
    """parse_rational matches one regex and builds the Fraction from its
    integer groups, read in chunks past the interpreter's int-string digit
    limit; it must agree with the regex-then-digit-by-digit path on value,
    error type and error message."""

    @pytest.mark.parametrize(
        "value",
        [
            # signs, leading zeros, zeros
            "0", "-0", "+0", "00", "0/7", "-0/3", "10/4", "-10/4", "+10/4", "007",
            "-007/014", "+5", "-5", "123456789012345678901234567890/35",
            # surrounding whitespace
            " 3/4", "3/4 ", "\t-2\n", "\n0\n", " 0 ", "\t\t+7/9  ",
            # non-ASCII digits
            "\u0663", "\uff13", "-\u0663/7", "7/3\u0663", "1/\u0663",
            # rejects
            "1/0", "1/00", "1/07", "3/-4", "1_000", "0.5", "", " ", "1/2/3", "+-1",
            "- 1", "1 /2", "1/ 2", "abc", "1e3", "/2", "2/", "0x10", "\u00bd",
            # past the 4,300-digit limit
            _OVERSIZE, "-" + _OVERSIZE, "1/" + _OVERSIZE, _OVERSIZE + "/" + _OVERSIZE,
            "0" * 4301, "7" * 4300, "1/" + "7" * 4300,
            # not strings
            0, 5, -3, 10**50, True, False, 0.5, 1.0, None, F(1, 2), b"1", ["1"],
        ],
    )
    def test_same_outcome(self, value):
        assert _parse_outcome(parse_rational, value) == _parse_outcome(_reference_parse, value)

    @pytest.mark.parametrize(
        "value",
        [
            "7" * 20_000, "-" + "7" * 20_000, "+" + "0" * 20_000, "7" * 20_001,
            "-" + "7" * 20_001, "1/" + "3" * 20_000, "1/" + "3" * 20_001,
            "7" * 20_001 + "/3", "\u0663" * 20_001, " " + "7" * 19_999 + "/" + "1" * 20_000 + "\n",
        ],
        ids=["num", "negative", "zeros", "num-over", "negative-over", "den", "den-over",
             "num-over-den", "non-ascii-over", "both-padded"],
    )
    def test_same_outcome_at_the_digit_bound(self, value):
        # the reader's bound of 20,000 digits on each integer, sign not counted
        assert _parse_outcome(parse_rational, value) == _parse_outcome(_reference_parse, value)

    def test_zero_is_shared(self):
        assert parse_rational("0") is parse_rational("0")


class TestConstructorCoercion:
    """A tuple of plain Fractions is taken as it is; anything else goes
    entry by entry through as_rational."""

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    @pytest.mark.parametrize("bad", [0.5, True, None], ids=["float", "bool", "None"])
    @pytest.mark.parametrize("at", [0, 2])
    def test_one_inexact_entry_rejected(self, cls, bad, at):
        coeffs = [F(1), F(2, 3), F(-5)]
        coeffs[at] = bad
        with pytest.raises(ValidationError):
            cls(2, tuple(coeffs))

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    def test_ints_and_literals_coerced(self, cls):
        got = cls(2, (1, "2/3", F(-5)))
        assert got.coeffs == (F(1), F(2, 3), F(-5))
        assert all(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    def test_fraction_subclass_accepted(self, cls):
        class Sub(F):
            pass

        got = cls(1, (F(1), Sub(3, 4)))
        assert got.coeffs == (F(1), F(3, 4))
        assert type(got.coeffs[1]) is Sub

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    def test_from_coeffs_pads_and_drops_unchecked(self, cls):
        assert cls.from_coeffs(1, [F(1), 2, 0.5]).coeffs == (F(1), F(2))
        assert cls.from_coeffs(3, iter(["1", F(1, 2)])).coeffs == (F(1), F(1, 2), F(0), F(0))
        with pytest.raises(ValidationError):
            cls.from_coeffs(2, [F(1), 0.5])

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_integer_constructors_match_the_constructor(self, cls, n):
        # from_coeffs, single, zero and one build from integers; every one
        # must give the object the constructor builds from the padded tuple
        def same(got, coeffs):
            want = cls(n, coeffs)
            assert (got._nums, got._den, got.coeffs) == (want._nums, want._den, want.coeffs)
            assert (repr(got), hash(got)) == (repr(want), hash(want))
            assert all(type(c) is F for c in got.coeffs)

        values = [3, F(-4, 6), "5/10", "-7", 0, F(0), "0", -2, "9/3", F(11, 5)]
        for length in range(len(values) + 1):
            head = values[:length]
            padded = (head + [0] * (n + 1))[: n + 1]  # past n dropped, short padded
            same(cls.from_coeffs(n, head), padded)
            same(cls.from_coeffs(n, iter(head)), padded)
        if cls is HSeries:
            same(HSeries.one(n), [1] + [0] * n)
            return
        same(GradedClass.zero(n), [0] * (n + 1))
        for codim in range(n + 1):
            for value in values:
                same(GradedClass.single(n, codim, value),
                     [0] * codim + [value] + [0] * (n - codim))

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    def test_list_and_generator_become_tuples(self, cls):
        assert cls(1, [F(1), F(2)]).coeffs == (F(1), F(2))
        assert cls(1, (F(c) for c in (1, 2))).coeffs == (F(1), F(2))
        assert cls(1, (c for c in (1, "2"))).coeffs == (F(1), F(2))


class TestSeriesArithmetic:
    def test_mul_difference_of_squares(self):
        assert S(3, 1, 1) * S(3, 1, -1) == S(3, 1, 0, -1)

    def test_mul_repeated_binomial(self):
        a = S(3, 1, 1)
        assert a * a * a * a == S(3, 1, 4, 6, 4)

    def test_mul_cancels_to_one(self):
        assert S(3, 1, 4) * S(3, 1, -4, 16, -64) == HSeries.one(3)

    def test_mul_truncates(self):
        # H^2 * H^2 vanishes on P^3
        assert S(3, 0, 0, 1) * S(3, 0, 0, 1) == S(3)

    def test_mul_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            S(3, 1) * S(2, 1)

    def test_scalar_mul(self):
        assert 2 * S(2, 1, 3) == S(2, 2, 6)
        assert S(2, 1, 3) * F(1, 2) == S(2, F(1, 2), F(3, 2))

    def test_invert_geometric(self):
        assert S(3, 1, 4).inverse() == S(3, 1, -4, 16, -64)

    def test_invert_identity(self):
        for n in range(5):
            assert HSeries.one(n).inverse() == HSeries.one(n)

    def test_invert_three_term(self):
        assert S(3, 1, 1, 1).inverse() == S(3, 1, -1, 0, 1)

    def test_invert_non_monic_unit(self):
        a = S(4, 2, -3, F(1, 5), 7, 0)
        assert a * a.inverse() == HSeries.one(4)

    def test_invert_non_unit(self):
        with pytest.raises(NonUnitError):
            S(3, 0, 1).inverse()

    def test_constant_term(self):
        assert S(3, F(-2, 3), 5, 0, F(1, 7)).constant_term == F(-2, 3)
        assert S(2, 0, 1).constant_term == 0 and HSeries.one(4).constant_term == 1

    def test_pow_negative(self):
        assert S(3, 1, 1) ** -2 == S(3, 1, -2, 3, -4)

    def test_pow_zero(self):
        assert S(3, 5, 1, 2) ** 0 == HSeries.one(3)

    def test_pow_binomial(self):
        assert S(3, 1, 1) ** 4 == S(3, 1, 4, 6, 4)

    def test_pow_negative_non_unit(self):
        with pytest.raises(NonUnitError):
            S(2, 0, 1) ** -1

    def test_pow_zero_of_a_non_unit_is_one(self):
        assert S(3, 0, 1, 2) ** 0 == HSeries.one(3)

    @pytest.mark.parametrize("exponent", [True, 2.0, "2"])
    def test_pow_needs_integer_exponent(self, exponent):
        with pytest.raises(ValidationError):
            tangent_chern(3) ** exponent

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            HSeries(2, (F(1),))

    def test_length_message(self):
        with pytest.raises(ValidationError, match=r"^series on P\^2 needs 3 coefficients, got 1$"):
            HSeries(2, (F(1),))
        with pytest.raises(ValidationError, match=r"^class on P\^1 needs 2 coefficients, got 3$"):
            GradedClass(1, (F(1), F(2), F(3)))

    def test_twin_type_rejected(self):
        with pytest.raises(ValidationError):
            S(1, 1, 2) + C(1, 1, 2)
        with pytest.raises(ValidationError):
            S(1, 1, 2) - C(1, 1, 2)
        with pytest.raises(ValidationError):
            S(1, 1, 2) * C(1, 1, 2)


class TestCap:
    def test_identity_operator(self):
        a = C(3, 0, 4, -7, 10)
        assert HSeries.one(3).cap(a) == a

    def test_tangent_cap_polar(self):
        assert (S(3, 1, 1) ** 4).cap(C(3, 0, 4, -7, 10)) == C(3, 0, 4, 9, 6)

    def test_one_plus_divisor_cap(self):
        assert S(3, 1, 4).cap(C(3, 0, 0, 9, -18)) == C(3, 0, 0, 9, 18)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            S(2, 1).cap(C(3, 1))

    def test_series_operand_rejected(self):
        with pytest.raises(ValidationError):
            S(2, 1).cap(S(2, 1))


def _reference_convolve(a, b):
    """The truncated product in plain Fraction arithmetic."""
    n = len(a) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


def _operand(rng, n, kind):
    """n+1 coefficients, about half of them zero (the kernel skips
    zeros), with denominators of the given kind."""
    if kind == "zero":
        return (F(0),) * (n + 1)
    out = []
    for k in range(n + 1):
        num = rng.choice([0, rng.randint(-99, 99)])
        if kind == "coprime":
            den = _PRIMES[k]
        elif kind == "mixed":
            den = rng.choice([1, 2, 3, 4, 6, 9, 10, 35])
        else:
            den = 1
        out.append(F(num, den))
    return tuple(out)


def _over_common_den(coeffs):
    """Integer numerators of coeffs over their least common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve_as_fractions(a, b):
    """_convolve on the integer numerators of a and b, read back over da*db."""
    (na, da), (nb, db) = _over_common_den(a), _over_common_den(b)
    got = _convolve(na, nb)
    assert all(type(c) is int for c in got)
    return tuple(F(c, da * db) for c in got)


class TestConvolveKernel:
    """_convolve works on integer numerators; over the product of the
    operands' denominators its results must equal the Fraction double
    loop's exactly."""

    @pytest.mark.parametrize(
        "kind_a,kind_b",
        [("mixed", "mixed"), ("mixed", "coprime"), ("coprime", "coprime"),
         ("integer", "mixed"), ("integer", "integer"), ("zero", "mixed"),
         ("coprime", "zero")],
    )
    def test_matches_fraction_loop(self, kind_a, kind_b):
        rng = random.Random(f"{kind_a}-{kind_b}")
        for n in range(41):
            a, b = _operand(rng, n, kind_a), _operand(rng, n, kind_b)
            assert _convolve_as_fractions(a, b) == _reference_convolve(a, b)

    def test_entry_past_digit_limit(self):
        rng = random.Random(0)
        a = list(_operand(rng, 12, "mixed"))
        a[3] = F(-(10**4400) + 7, 3**5)
        b = _operand(rng, 12, "coprime")
        assert _convolve_as_fractions(a, b) == _reference_convolve(a, b)
        assert _convolve_as_fractions(b, a) == _reference_convolve(b, a)


def _reference_int_convolve(a, b):
    """The truncated product of two integer vectors by the double loop."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _int_operand(rng, n, kind):
    """n+1 integers of 1 to 600 bits and either sign, zero where kind says."""

    def entry():
        return rng.choice([-1, 1]) * (rng.getrandbits(rng.randint(1, 600)) | 1)

    if kind == "one-piece":
        out = [0] * (n + 1)
        out[rng.randint(0, n)] = entry()
        return tuple(out)
    share = {"zero": 0, "sparse": 0.25, "mixed": 0.6, "dense": 1}[kind]
    return tuple(entry() if rng.random() < share else 0 for _ in range(n + 1))


_KINDS = ("one-piece", "sparse", "mixed", "dense", "zero")
_SIZES = (0, 1, 2, 7, 8, 11, 12, 13, 16, 24, 120)  # both sides of _DENSE_MIN_N = 12


def _convolve_path(monkeypatch, a, b) -> str:
    """Which of _convolve's three paths takes a and b: the C sum is the one
    path that calls operator.mul, the packed one calls _packed_convolve."""
    paths = []

    def counted(x, y):
        paths.append("summed")
        return x * y

    def packed(*args):
        paths.append("packed")
        return packed_convolve(*args)

    packed_convolve = chow._packed_convolve
    monkeypatch.setattr(chow, "mul", counted)
    monkeypatch.setattr(chow, "_packed_convolve", packed)
    got = _convolve(a, b)
    monkeypatch.undo()
    assert got == _reference_int_convolve(a, b)
    return paths[0] if paths else "loop"


class TestConvolveSelection:
    """_convolve packs two operands with few zeros from n = 64 on, when the
    bit lengths of their largest entries sum to at most 256; it sums other
    such operands in C from n = 12 on, and skips zeros otherwise.  All
    three ways give the double loop's integers."""

    @pytest.mark.parametrize("n", _SIZES)
    def test_matches_double_loop(self, n):
        rng = random.Random(n)
        for kind_a in _KINDS:
            for kind_b in _KINDS:
                a, b = _int_operand(rng, n, kind_a), _int_operand(rng, n, kind_b)
                assert _convolve(a, b) == _reference_int_convolve(a, b), (kind_a, kind_b)
                assert _convolve(b, a) == _reference_int_convolve(b, a), (kind_b, kind_a)

    @pytest.mark.parametrize(
        "n,zeros_a,zeros_b,summed",
        [
            (8, 0, 0, False), (11, 0, 0, False), (12, 0, 0, True), (120, 0, 0, "packed"),
            (19, 4, 0, True), (19, 0, 4, True), (19, 5, 0, False), (19, 2, 2, True),
            (19, 3, 2, False), (18, 4, 0, False), (24, 25, 0, False), (120, 121, 121, False),
            (63, 0, 0, True), (64, 0, 0, "packed"), (64, 13, 0, "packed"), (64, 7, 7, False),
        ],
    )
    def test_rule(self, monkeypatch, n, zeros_a, zeros_b, summed):
        # summed: True for the C sums, False for the loop, or "packed"
        a = [0] * zeros_a + [2 + k for k in range(n + 1 - zeros_a)]
        b = [3 + k for k in range(n + 1 - zeros_b)] + [0] * zeros_b
        path = {True: "summed", False: "loop"}.get(summed, summed)
        assert _convolve_path(monkeypatch, a, b) == path

    @pytest.mark.parametrize(
        "n,bits,path",
        [(64, 256, "packed"), (64, 257, "summed"), (240, 256, "packed"), (240, 257, "summed")],
    )
    def test_width_rule(self, monkeypatch, n, bits, path):
        # packed for at most 256 bits of both operands' largest entries: a's
        # largest takes the bits that b's, n + 3, leaves
        a = [2 + k for k in range(n)] + [-(2 ** (bits - (n + 3).bit_length()) - 1)]
        b = [3 + k for k in range(n + 1)]
        assert _convolve_path(monkeypatch, a, b) == path

    @pytest.mark.parametrize("n", [12, 24, 120])
    def test_cap_same_on_both_paths(self, monkeypatch, n):
        rng = random.Random(f"cap-{n}")
        wide = HSeries._reduce(n, _int_operand(rng, n, "dense"), 3**n)
        narrow = [rng.choice((-1, 1)) * rng.getrandbits(14) for _ in range(n + 1)]
        pairs = [
            (wide, tangent_chern(n).cap(C(n, *[F(k + 1, 7) for k in range(n + 1)]))),
            (wide, GradedClass._reduce(n, _int_operand(rng, n, "dense"), 10**5)),
            (tangent_chern(n), GradedClass._reduce(n, narrow, 11)),
        ]
        # all three paths, each forced for every dense pair, whatever its n and widths
        forced = {
            "loop": {"_DENSE_MIN_N": n + 1},
            "summed": {"_PACK_MIN_N": n + 1},
            "packed": {"_PACK_MIN_N": 0, "_PACK_MAX_BITS": 10**6},
        }
        for series, cls in pairs:
            results = []
            for constants in forced.values():
                for name, value in constants.items():
                    monkeypatch.setattr(chow, name, value)
                results.append(series.cap(cls))
                monkeypatch.undo()
            assert results[0] == results[1] == results[2]
            assert len({hash(r) for r in results}) == 1
            assert results[0].to_json() == results[1].to_json() == results[2].to_json()
        # the real n = 120 shape, a 14-bit class against c(TP^n), is packed
        assert _convolve_path(monkeypatch, pairs[2][1]._nums, pairs[2][0]._nums) == (
            "packed" if n == 120 else "summed"
        )


@st.composite
def _narrow_operands(draw):
    """Two integer vectors for the packed path and either side of its rule:
    n at and around _PACK_MIN_N, largest entries of bits_a and bits_b bits
    summed at, below or one past _PACK_MAX_BITS, zeros up to the density
    edge and one past it, and each side positive, negative or mixed.
    Extreme operands hold only their largest magnitude, so that every
    output entry is as large as the widths allow."""
    n = draw(st.sampled_from([chow._PACK_MIN_N - 1, chow._PACK_MIN_N, 120, 240]))
    total = draw(st.sampled_from([chow._PACK_MAX_BITS, chow._PACK_MAX_BITS + 1])
                 | st.integers(2, chow._PACK_MAX_BITS))
    bits_a = draw(st.integers(1, total - 1))
    zeros = draw(st.integers(0, (n + 1) // 5 + 1))  # one past the edge: the loop
    zeros_a = draw(st.integers(0, zeros))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def operand(bits, zeros):
        signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
        top = 2**bits - 1
        if draw(st.booleans()):  # extreme
            values = [top] * (n + 1)
        else:
            values = [rng.randint(1, top) for _ in range(n + 1)]
            values[rng.randint(0, n)] = top
        for k in rng.sample(range(n + 1), zeros):
            values[k] = 0
        if top not in values:  # the one entry pinned at top was zeroed
            values[values.index(0)] = top
        sign = {"positive": lambda: 1, "negative": lambda: -1,
                "mixed": lambda: rng.choice((-1, 1))}[signs]
        return [sign() * x for x in values]

    return operand(bits_a, zeros_a), operand(total - bits_a, zeros - zeros_a)


class TestPackedConvolve:
    """The packed path against the double loop on operands near its rule's
    edges: a slot too narrow by one bit shows on the extreme operands."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(_narrow_operands())
    def test_matches_double_loop(self, operands):
        a, b = operands
        assert _convolve(a, b) == _reference_int_convolve(a, b)
        assert _convolve(b, a) == _reference_int_convolve(b, a)

    @pytest.mark.parametrize("n", [64, 120, 127, 240])
    @pytest.mark.parametrize("bits", [2, 121, 128, 129, 135, 136, 255, 256])
    @pytest.mark.parametrize("sign_a,sign_b", [(1, 1), (-1, 1), (-1, -1)])
    def test_extreme_entries(self, n, bits, sign_a, sign_b):
        # every entry as large as the widths allow, all of one sign: entry n
        # is (n+1)(2^A - 1)(2^B - 1), the most a slot must hold
        a = [sign_a * (2 ** (bits // 2) - 1)] * (n + 1)
        b = [sign_b * (2 ** (bits - bits // 2) - 1)] * (n + 1)
        assert chow._packed_convolve(a, b, bits) == _reference_int_convolve(a, b)
        alternating = [x if k % 2 else -x for k, x in enumerate(a)]
        assert chow._packed_convolve(alternating, b, bits) == _reference_int_convolve(
            alternating, b
        )


_TWIST_DEGREES = [F(1), F(-1), F(4), F(7, 2), F(-5, 3), F(1, 9), F(10**200 + 1)]


class TestTwistSelection:
    """twist sums in C a class with few zero pieces from n = 12 on, for a
    nonzero degree p/q of at most 16-bit p and q, by one cached binomial
    table per (n, e = n - m) for n <= 240 and |e| <= 2n; everything else
    keeps the row loop.  Both ways give the same integers."""

    @pytest.mark.parametrize(
        "n,zeros,degree,e,summed",
        [
            (11, 0, F(1), 1, False), (12, 0, F(1), 1, True), (12, 0, F(7, 2), 1, True),
            (24, 5, F(1), 1, True), (24, 6, F(1), 1, False), (24, 5, F(-5, 3), 1, True),
            (24, 6, F(-5, 3), 1, False), (120, 24, F(4), 1, True), (120, 25, F(4), 1, False),
            (13, 3, F(1), 1, False), (14, 3, F(1), 1, True), (24, 0, F(0), 1, False),
            (120, 0, F(0), 1, False),
            (24, 0, F(2**16 - 1), 1, True), (24, 0, F(-(2**16)), 1, False),
            (24, 0, F(2, 2**16 - 1), 1, True), (24, 0, F(3, 2**16), 1, False),  # 2**16 - 1 is odd
            # the table is cached for n <= 240 and |e| <= 2n only
            (240, 0, F(-2, 3), 0, True), (241, 0, F(-2, 3), 0, False), (24, 0, F(-2, 3), 48, True),
            (24, 0, F(-2, 3), 49, False), (24, 0, F(-2, 3), -48, True),
            (24, 0, F(-2, 3), -49, False),
        ],
    )
    def test_rule(self, monkeypatch, n, zeros, degree, e, summed):
        # the dense path is the one that calls operator.mul
        calls = []

        def counted(x, y):
            calls.append(1)
            return x * y

        a = [2 + k for k in range(n + 1)]
        for i in range(zeros):  # spread over the class, first piece included
            a[i * (n + 1) // zeros] = 0
        cls, bundle = GradedClass._reduce(n, a, 5), LineBundleOnPn(degree)
        monkeypatch.setattr(chow, "_DENSE_MIN_N", n + 1)
        looped = cls.twist(bundle, n - e)
        monkeypatch.undo()
        monkeypatch.setattr(chow, "mul", counted)
        assert cls.twist(bundle, n - e) == looped
        assert bool(calls) is summed

    @pytest.mark.parametrize("n", [12, 24, 120])
    def test_same_on_both_paths(self, monkeypatch, n):
        rng = random.Random(f"twist-{n}")
        integer = GradedClass._reduce(n, _int_operand(rng, n, "dense"), 1)
        signs = [rng.choice((-1, 1)) for _ in range(n + 1)]
        rational = GradedClass(n, [F(s * rng.randint(1, 99), rng.randint(1, 30)) for s in signs])
        for cls in (integer, rational):
            # 10^200 + 1 is summed only with the degree bound lifted, and at
            # n = 120 its 24,000-digit entries take seconds: left out there
            for degree in _TWIST_DEGREES if n < 120 else _TWIST_DEGREES[:-1]:
                bundle = LineBundleOnPn(degree)
                for m in (n, n - 1, n + 2, 0, -3):
                    monkeypatch.setattr(chow, "_DENSE_DEGREE_BITS", 700)
                    summed = cls.twist(bundle, m)
                    monkeypatch.setattr(chow, "_DENSE_MIN_N", n + 1)
                    looped = cls.twist(bundle, m)
                    monkeypatch.undo()
                    assert summed == looped and hash(summed) == hash(looped), (degree, m)
                    assert summed.to_json() == looped.to_json(), (degree, m)

    def test_table_cache_is_bounded(self):
        GradedClass._reduce(24, range(1, 26), 1).twist(LineBundleOnPn(3), 20)
        assert chow._twist_table.cache_info().maxsize == 8
        # the largest table the twist builds: eight of them hold under 18 MiB
        table = chow._twist_table.__wrapped__(chow._TABLE_MAX_N, -2 * chow._TABLE_MAX_N)
        held = sys.getsizeof(table) + sum(
            sys.getsizeof(column) + sum(map(sys.getsizeof, column)) for column in table
        )
        assert held < 2.2 * 2**20
        table = chow._twist_table(24, 4)
        assert type(table) is tuple and all(type(column) is tuple for column in table)
        assert [len(column) for column in table] == list(range(1, 26))
        assert table[3] == (math.comb(4, 3), math.comb(3, 2), math.comb(2, 1), 1)


def _reference_chern(degree, n, power):
    """(1 + degree*H)^power mod H^(n+1) by the Fraction recurrence
    a_k = a_{k-1} * (power - k + 1) * degree / k."""
    coeffs = [F(1)]
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] * (power - k + 1) * degree / k)
    return tuple(coeffs)


def _reference_twist(coeffs, degree, m):
    """twist in Fraction arithmetic: piece k times (1 + degree*H)^(n-k-m)."""
    n = len(coeffs) - 1
    out = [F(0)] * (n + 1)
    for k, a in enumerate(coeffs):
        if a:
            for i, s in enumerate(_reference_chern(degree, n - k, n - k - m)):
                out[k + i] += a * s
    return tuple(out)


_DEGREES = [F(0), F(1), F(-1), F(-5, 3), F(4), F(7, 2), F(1, 9)]


class TestLineBundleKernel:
    """chern and twist work on integer numerators and binomials; their
    results must equal the Fraction loops' exactly."""

    @pytest.mark.parametrize("kind", ["mixed", "coprime", "integer", "zero"])
    def test_twist_matches_fraction_loop(self, kind):
        rng = random.Random(kind)
        for n in range(31):
            a = _operand(rng, n, kind)
            for degree in _DEGREES:
                for m in (n, n - 1, n + 2, 0):
                    got = GradedClass(n, a).twist(LineBundleOnPn(degree), m).coeffs
                    assert got == _reference_twist(a, degree, m)
                    assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("gap", [0, 1, 2])
    def test_twist_rows_across_zero_pieces(self, gap):
        # runs of nonzero pieces split by `gap` zero pieces, after leading and
        # before trailing zeros: rows stepped by Pascal's rule and rows built
        # afresh after a zero piece must both match the Fraction loop
        rng = random.Random(gap)
        for n in (12, 16, 20):
            runs = [[0, 0], [rng.randint(1, 9), F(-5, 7)], [0] * gap,
                    [F(3, 4), -2, rng.randint(-9, -1)], [0] * gap, [F(11, 3)]]
            a = tuple(F(c) for run in runs for c in run)
            a += (F(0),) * (n + 1 - len(a))
            for degree in _DEGREES:
                for m in (n, n - 1, n + 2, 0, -3):  # n + 2: every e = n-k-m is negative
                    got = GradedClass(n, a).twist(LineBundleOnPn(degree), m).coeffs
                    assert got == _reference_twist(a, degree, m)

    def test_twist_entry_past_digit_limit(self):
        a = list(_operand(random.Random(0), 12, "mixed"))
        a[3] = F(-(10**4400) + 7, 3**5)
        for degree in _DEGREES:
            for m in (12, 11, 14, 0):
                got = GradedClass(12, tuple(a)).twist(LineBundleOnPn(degree), m)
                assert got.coeffs == _reference_twist(a, degree, m)

    def test_twist_by_a_degree_past_float_range(self):
        # p = 10^200 + 1: every power p^i q^(n-i) must stay an int, since p^4
        # is past what a float can hold
        a = (F(0), F(-4), F(-7), F(-10, 3))
        for degree in (F(10**200 + 1, 3), F(10**200 + 1)):
            got = GradedClass(3, a).twist(LineBundleOnPn(degree), 3)
            assert got.coeffs == _reference_twist(a, degree, 3)

    def test_chern_matches_fraction_recurrence(self):
        for degree in (F(-5, 3), F(7, 2), F(1, 9), F(-22, 7)):
            for n in range(16):
                for e in range(-n - 2, n + 3):
                    got = LineBundleOnPn(degree).chern(n, e).coeffs
                    assert got == _reference_chern(degree, n, e)
                    assert all(type(c) is F for c in got)


class TestAmbientDimensionBound:
    """chern and from_coeffs refuse n >= sys.maxsize before any loop of size
    n: with the binomial rows disabled, a missed refusal fails at once."""

    @pytest.mark.usefixtures("no_binomials")
    @pytest.mark.parametrize("n", [sys.maxsize, 10**400], ids=["maxsize", "10^400"])
    def test_refused(self, n):
        for build in (
            lambda: LineBundleOnPn(F(2)).chern(n),
            lambda: tangent_chern(n),
            lambda: HSeries.from_coeffs(n, [1]),
            lambda: GradedClass.from_coeffs(n, [1]),
            lambda: GradedClass.single(n, 1, 2),
            lambda: GradedClass.single(n, n, 2),  # refused before [0] * codim
            lambda: GradedClass.zero(n),
            lambda: HSeries.one(n),
        ):
            with pytest.raises(ValidationError, match=f"ambient_dim must be below {sys.maxsize}"):
                build()


class TestLinearFactorKernel:
    """mul_linear and div_linear work on integer numerators in O(n); their
    results must equal the caps by the dense series they replace."""

    @pytest.mark.parametrize("kind", ["mixed", "coprime", "integer", "zero"])
    def test_matches_cap_by_line_bundle_series(self, kind):
        rng = random.Random(f"linear-{kind}")
        for n in range(41):
            cls = GradedClass(n, _operand(rng, n, kind))
            for lam in _DEGREES:
                bundle = LineBundleOnPn(lam)
                div = cls.div_linear(lam)
                assert div == bundle.chern(n, -1).cap(cls)
                assert div.mul_linear(1, lam) == cls
                assert cls.mul_linear(1, lam) == bundle.chern(n).cap(cls)
                assert all(type(c) is F for c in div.coeffs)

    @pytest.mark.parametrize(
        "a,b",
        [(F(1), F(-5, 3)), (F(-5, 3), F(7, 2)), (F(1, 9), F(0)), (F(0), F(1)),
         (F(0), F(0)), (F(-4), F(6, 35)), ("3/4", -2)],
    )
    def test_mul_matches_cap_by_two_term_series(self, a, b):
        rng = random.Random(f"{a}-{b}")
        for n in range(41):
            cls = GradedClass(n, _operand(rng, n, "mixed"))
            got = cls.mul_linear(a, b)
            assert got == HSeries.from_coeffs(n, [a, b]).cap(cls)
            assert all(type(c) is F for c in got.coeffs)

    def test_entry_past_digit_limit(self):
        a = list(_operand(random.Random(0), 12, "mixed"))
        a[3] = F(-(10**4400) + 7, 3**5)
        cls = GradedClass(12, tuple(a))
        for lam in _DEGREES:
            bundle = LineBundleOnPn(lam)
            assert cls.div_linear(lam) == bundle.chern(12, -1).cap(cls)
            assert cls.mul_linear(F(-5, 3), lam) == HSeries.from_coeffs(
                12, [F(-5, 3), lam]
            ).cap(cls)


_WIDE_Q = 2**89 - 1  # a prime denominator of 89 bits


@st.composite
def _linear_sum_cases(draw):
    """(A, a, B, b, lam): two classes on one P^n, zero, one-piece, sparse or
    dense, over denominators that may differ, and weights and a degree among
    them zero, negative and wide."""
    n = draw(st.integers(0, 30))

    def graded():
        kind = draw(st.sampled_from(["zero", "one-piece", "sparse", "dense"]))
        entry = st.integers(-(10**40), 10**40)
        if kind == "one-piece":
            nums = [0] * (n + 1)
            nums[draw(st.integers(0, n))] = draw(entry)
        else:
            share = {"zero": 0, "sparse": 0.3, "dense": 1}[kind]
            nums = [draw(entry) if draw(st.floats(0, 1)) < share else 0 for _ in range(n + 1)]
        den = draw(st.sampled_from([1, 3, 7**5, 2**61 - 1, _WIDE_Q]))
        return GradedClass._reduce(n, nums, den)

    rational = st.one_of(
        st.sampled_from([0, 1, -1, F(0), F(-3, 5), F(3, 5), F(24, 7), F(-5, 3), F(1, _WIDE_Q)]),
        st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**6),
    )
    return graded(), draw(rational), graded(), draw(rational), draw(rational)


class TestTwoClassLinearFactorKernel:
    """_div_linear_sum gives (a*A + b*B) capped with 1/(1 + lam*H) in one
    pass: the same integers as the sum, the scalings and div_linear, and as
    the cap by the inverse line-bundle series."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_linear_sum_cases())
    @example((C(3, 0, 4, F(-7, 2), 1), F(-3, 5), C(3, F(1, 9), 0, 0, 2), F(3, 5), F(0)))
    @example((C(3, 0, 4, 1, 1), 0, C(3, F(1, 9), 0, 5, 2), 0, F(-5, 3)))
    @example((C(2, 0, 0, 0), F(2), C(2, 1, F(1, 3), 0), F(0), F(1, _WIDE_Q)))
    def test_matches_sum_then_division(self, case):
        a_cls, a, b_cls, b, lam = case
        got = a_cls._div_linear_sum(a, b_cls, b, lam)
        total = a_cls * a + b_cls * b
        n = a_cls.ambient_dim
        for want in (total.div_linear(lam), LineBundleOnPn(lam).chern(n, -1).cap(total)):
            assert (got._nums, got._den) == (want._nums, want._den)
        assert type(got) is GradedClass and all(type(x) is int for x in got._nums)

    def test_one_class_case_is_div_linear(self):
        cls = C(4, F(1, 3), 0, -5, F(7, 2), 11)
        for lam in _DEGREES:
            assert cls.div_linear(lam) == cls._div_linear_sum(1, cls, 0, lam)
            assert cls._div_linear_sum(F(-2, 9), cls, 0, lam) == (cls * F(-2, 9)).div_linear(lam)

    @pytest.mark.parametrize("m", [2, 4])
    def test_other_class_on_another_pn_is_refused(self, m):
        with pytest.raises(DimensionMismatchError, match=f"ambient dimensions differ: 3 vs {m}"):
            C(3, 1, 2, 3, 4)._div_linear_sum(1, GradedClass.zero(m), 1, 2)


class TestDualAndTwist:
    def test_dual_signs(self):
        assert C(3, 0, 4, -7, 10).dual(3) == C(3, 0, -4, -7, -10)

    def test_dual_involution(self):
        a = C(3, 2, 4, -7, 10)
        assert a.dual(3).dual(3) == a
        assert a.dual(5).dual(5) == a

    def test_dual_fixes_top_class(self):
        a = C(4, 1)
        assert a.dual(4) == a

    def test_dual_default_relative_dim(self):
        a = C(3, 1, 2, 3, 4)
        assert a.dual() == a.dual(3)

    def test_twist_example(self):
        got = C(3, 0, -4, -7, -10).twist(LineBundleOnPn(F(4)), 3)
        assert got == C(3, 0, -4, 9, -18)

    def test_twist_trivial_bundle(self):
        a = C(3, 1, 2, 3, 4)
        assert a.twist(LineBundleOnPn(F(0)), 3) == a

    def test_twist_composes(self):
        a = C(3, 0, 5, -2, 7)
        twice = a.twist(LineBundleOnPn(F(2)), 3).twist(LineBundleOnPn(F(3)), 3)
        assert twice == a.twist(LineBundleOnPn(F(5)), 3)

    def test_twist_rational_degree(self):
        # single codim-1 piece: a*(1 + (1/2)H)^(-1)
        got = C(2, 0, 4, 0).twist(LineBundleOnPn(F(1, 2)), 2)
        assert got == C(2, 0, 4, -2)

    def test_twist_relative_dim_below_n(self):
        # dim-1 piece has codim 1 in a surface M: times (1+2H)^(-1)
        got = C(3, 0, 0, 3, 0).twist(LineBundleOnPn(F(2)), 2)
        assert got == C(3, 0, 0, 3, -6)
        # dim-0 piece sits at top degree; truncation leaves it alone
        piece = C(3, 0, 0, 0, 1).twist(LineBundleOnPn(F(3)), 2)
        assert piece == C(3, 0, 0, 0, 1)
        # negative codimension gives a positive (polynomial) power: times 1+3H
        deeper = C(3, 0, 1, 0, 0).twist(LineBundleOnPn(F(3)), 1)
        assert deeper == C(3, 0, 1, 3, 0)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2"])
    def test_relative_dim_must_be_integer(self, m):
        a = C(3, 0, 4, -7, 10)
        with pytest.raises(ValidationError):
            a.dual(m)
        with pytest.raises(ValidationError):
            a.twist(LineBundleOnPn(F(2)), m)

    @pytest.mark.parametrize("bundle", [2, F(2), None, S(3, 1, 2, 0, 0)])
    def test_twist_needs_a_line_bundle(self, bundle):
        with pytest.raises(ValidationError):
            C(3, 0, 4, -7, 10).twist(bundle)


@pytest.mark.parametrize("power", [1.5, 2.0, True, "2", None])
def test_line_bundle_power_must_be_integer(power):
    with pytest.raises(ValidationError):
        LineBundleOnPn(F(2)).chern(3, power)


class TestTangentChern:
    @pytest.mark.parametrize(
        "n,coeffs", [(3, (1, 4, 6, 4)), (0, (1,)), (2, (1, 3, 3)), (1, (1, 2))]
    )
    def test_values(self, n, coeffs):
        assert tangent_chern(n) == S(n, *coeffs)

    def test_matches_power(self):
        for n in range(6):
            assert tangent_chern(n) == S(n, 1, 1) ** (n + 1)

    def test_built_once_per_n(self):
        chow._tangent_chern.cache_clear()
        assert tangent_chern(7) is tangent_chern(7)
        assert tangent_chern(7) is not tangent_chern(8)

    def test_cache_is_bounded(self):
        # c(TP^n) grows like n^2 bits: at most 32 of them are kept
        chow._tangent_chern.cache_clear()
        for n in range(40):
            tangent_chern(n)
        assert chow._tangent_chern.cache_info().currsize == 32

    @pytest.mark.parametrize("bad", [True, False, -1, 1.0, "1"])
    def test_bad_argument_refused_after_a_cached_n(self, bad):
        # True == 1 and hashes alike: the argument is checked before the cache
        tangent_chern(1)
        tangent_chern(0)
        with pytest.raises(ValidationError, match="projective dimension must be"):
            tangent_chern(bad)


class TestGradedClassBasics:
    def test_add_sub_neg(self):
        a, b = C(2, 1, 2, 3), C(2, 0, 1, -1)
        assert a + b == C(2, 1, 3, 2)
        assert a - b == C(2, 1, 1, 4)
        assert -a == C(2, -1, -2, -3)

    def test_scalar(self):
        assert F(1, 2) * C(2, 2, 4, 6) == C(2, 1, 2, 3)

    def test_single_and_zero(self):
        assert GradedClass.single(3, 1, 4) == C(3, 0, 4, 0, 0)
        assert GradedClass.zero(2).is_zero()
        with pytest.raises(ValidationError):
            GradedClass.single(2, 3, 1)
        with pytest.raises(ValidationError):
            GradedClass.single(3, -1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            C(2, 1) + C(3, 1)

    def test_twin_type_rejected(self):
        with pytest.raises(ValidationError):
            C(1, 1, 2) + S(1, 1, 2)
        with pytest.raises(ValidationError):
            C(1, 1, 2) - S(1, 1, 2)
        with pytest.raises(ValidationError):
            C(1, 1, 2) * S(1, 1, 2)

    def test_degree_zero_part(self):
        assert C(3, 0, 4, 0, 24).degree_zero_part() == 24

    def test_point_space(self):
        # n = 0: everything is scalar arithmetic
        a = C(0, 5)
        assert S(0, 3).cap(a) == C(0, 15)
        assert a.dual(0) == a
        assert a.twist(LineBundleOnPn(F(7)), 0) == a


@pytest.mark.parametrize(
    "build",
    [
        lambda n: HSeries(n, (1, 0)),
        lambda n: GradedClass(n, (1, 0)),
        lambda n: HSeries.from_coeffs(n, [1]),
        lambda n: GradedClass.from_coeffs(n, [1]),
        lambda n: GradedClass.zero(n),
        lambda n: GradedClass.single(n, 1, 1),
        lambda n: tangent_chern(n),
        lambda n: LineBundleOnPn(F(2)).chern(n, -1),
        lambda codim: GradedClass.single(3, codim, 1),
    ],
    ids=["HSeries", "GradedClass", "HSeries.from_coeffs", "GradedClass.from_coeffs",
         "GradedClass.zero", "GradedClass.single", "tangent_chern", "LineBundleOnPn.chern",
         "GradedClass.single-codim"],
)
@pytest.mark.parametrize("dim", [1.0, True, "3"], ids=["float", "bool", "str"])
def test_non_integer_ambient_dim_rejected(build, dim):
    with pytest.raises(ValidationError):
        build(dim)


class TestStr:
    def test_graded(self):
        assert str(C(3, 0, 4, -7, 10)) == "4[P^2] - 7[P^1] + 10[P^0]"
        assert str(C(2, 0, 0, 0)) == "0"
        assert str(C(2, -1, 0, F(7, 2))) == "-1[P^2] + 7/2[P^0]"

    def test_series(self):
        assert str(S(3, 1, 4, 6, 4)) == "1 + 4H + 6H^2 + 4H^3"
        assert str(S(2, 1, 0, -1)) == "1 - H^2"
        assert str(S(1, 0, 0)) == "0"

    def test_unit_coefficient_after_the_first(self):
        assert str(S(2, 1, 1, 1)) == "1 + H + H^2"
        assert str(C(2, 4, 1, -1)) == "4[P^2] + 1[P^1] - 1[P^0]"

    def test_past_digit_limit(self):
        big = "1" + "0" * 5000
        assert str(S(1, 10**5000, -(10**5000))) == f"{big} - {big}H"
        assert str(C(1, 0, -(10**5000))) == f"-{big}[P^0]"


class TestJsonWireForms:
    def test_graded_round_trip(self):
        a = C(3, 0, 4, F(-7, 2), 10)
        assert GradedClass.from_json(a.to_json()) == a

    def test_series_round_trip(self):
        s = S(2, 1, F(1, 3), -2)
        assert HSeries.from_json(s.to_json()) == s

    def test_graded_wire_shape(self):
        assert C(3, 0, 4, -7, 10).to_json() == {
            "ambient_dim": 3,
            "coeffs_by_codim": ["0", "4", "-7", "10"],
        }

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    def test_integer_class_written_as_per_entry_wire(self, cls):
        # _den == 1 is written entry by entry with no gcd; the bytes must be
        # the per-entry wire form's, past the int-string digit limit too
        huge = 10**5000 + 7
        for coeffs in ([0, 3, -4, 0, huge, -huge], [0] * 6, [1, 2, "1/2", 0, huge, F(-1, 3)]):
            got = cls(5, coeffs)
            want = [_wire(x, got._den) for x in got._nums]
            assert got.to_json() == {"ambient_dim": 5, cls._wire_key: want}

    def test_unknown_key_rejected(self):
        with pytest.raises(InputParseError):
            GradedClass.from_json(
                {"ambient_dim": 1, "coeffs_by_codim": ["1", "2"], "extra": 1}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(InputParseError):
            GradedClass.from_json({"ambient_dim": 1})

    def test_length_must_match_dim(self):
        with pytest.raises(InputParseError):
            GradedClass.from_json({"ambient_dim": 2, "coeffs_by_codim": ["1", "2"]})
        with pytest.raises(InputParseError):
            HSeries.from_json({"ambient_dim": 1, "coeffs_by_degree": ["1", "2", "3"]})

    def test_bad_dim_rejected(self):
        with pytest.raises(InputParseError):
            GradedClass.from_json({"ambient_dim": -1, "coeffs_by_codim": []})
        with pytest.raises(InputParseError):
            GradedClass.from_json({"ambient_dim": "3", "coeffs_by_codim": []})

    def test_bad_rational_rejected(self):
        with pytest.raises(InputParseError):
            GradedClass.from_json({"ambient_dim": 0, "coeffs_by_codim": ["1.5"]})

    def test_entries_read_as_the_constructor_reads_them(self):
        # unreduced, signed, padded, zero and non-ASCII spellings, JSON ints
        # and mixed denominators give the class the constructor builds
        values = ["2/4", "-0", "0/5", " 9 ", "\u0663", -7, "0", "+5/10", "-1/6", "10/15"]
        for cls, key in ((GradedClass, "coeffs_by_codim"), (HSeries, "coeffs_by_degree")):
            got = cls.from_json({"ambient_dim": len(values) - 1, key: values})
            assert got == cls(len(values) - 1, [parse_rational(v) for v in values])
            assert got.to_json()[key] == [
                "1/2", "0", "0", "9", "3", "-7", "0", "1/2", "-1/6", "2/3"
            ]


def _reader_outcome(read):
    """(nums, den) of the class read, or the type and text of its refusal."""
    try:
        got = read()
    except Exception as exc:  # the outcome is compared, not raised
        return type(exc), str(exc)
    return got._nums, got._den


_ODD_ENTRIES = [
    "0", "00", "-0", "+7", " 7\n", "\u0663", "1_0", "", "3/4", "6/4", "1/0",
    "7" * 4301, "-" + "3" * 4301 + "/7", "1/" + "9" * 4301,
]
_INTEGER_LITERALS = st.integers(-(10**40), 10**40).map(str) | st.sampled_from(_ODD_ENTRIES[:6])
_ODD_OR_NOT_STR = (
    st.sampled_from(_ODD_ENTRIES) | st.integers(-(10**40), 10**40) | st.booleans()
    | st.floats(allow_nan=False) | st.none()
)


@st.composite
def _wire_lists(draw):
    """Integer literals alone, with one odd entry among them, or a free mix."""
    values = draw(st.lists(_INTEGER_LITERALS, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["integers", "one odd", "mix"]))
    if kind == "one odd":
        values.insert(draw(st.integers(0, len(values))), draw(_ODD_OR_NOT_STR))
    elif kind == "mix":
        values = draw(st.lists(_INTEGER_LITERALS | _ODD_OR_NOT_STR, min_size=1, max_size=8))
    return values


class TestWireReader:
    """from_json reads a list of integer literals in one int pass and every
    other list entry by entry; both must give what the per-entry path gives."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.sampled_from([HSeries, GradedClass]), _wire_lists())
    @example(GradedClass, ["1_0"])
    @example(HSeries, ["3", "-0", "1_0", " 7\n"])
    @example(GradedClass, ["4", "6/4", "0"])
    @example(HSeries, ["4", "", "1/0"])
    def test_matches_per_entry_path(self, cls, values):
        n = len(values) - 1

        def per_entry():
            return cls._reduce(n, *chow._gather([chow._literal(v) for v in values]))

        got = _reader_outcome(lambda: cls.from_json({"ambient_dim": n, cls._wire_key: values}))
        assert got == _reader_outcome(per_entry)

    def test_integer_list_read_in_one_pass(self, monkeypatch):
        def per_entry(value):
            raise AssertionError(f"{value!r} read entry by entry")

        want = C(7, 0, 4, -7, 10, 3, 3, 0, 12)
        monkeypatch.setattr(chow, "_literal", per_entry)
        values = ["0", "4", "-7", " 10\n", "+3", "\u0663", "-0", "0" * 4200 + "12"]
        assert GradedClass.from_json({"ambient_dim": 7, "coeffs_by_codim": values}) == want
        with pytest.raises(AssertionError, match="'1/2' read entry by entry"):
            GradedClass.from_json({"ambient_dim": 1, "coeffs_by_codim": ["1/2", "4"]})

    @pytest.mark.parametrize("cls", [HSeries, GradedClass])
    @pytest.mark.parametrize(
        "entry",
        [10**5000 + 7, -(10**5000) - 7, F(10**5000 + 7, 3**40), F(-3, 10**5000 + 9)],
        ids=["num", "negative", "num-over-den", "den"],
    )
    def test_round_trip_past_digit_limit(self, cls, entry):
        # 5,001 digits: written in chunks by _digits, read back in chunks
        value = cls(5, [0, 3, -4, 0, entry, F(1, 7)])
        wire = value.to_json()
        assert max(map(len, wire[cls._wire_key])) > 5000
        assert cls.from_json(wire) == value

    def test_published_round_trip(self):
        value = GradedClass(5, [0, 3, -4, 0, 10**5000 + 7, 0])
        assert GradedClass.from_json(value.to_json()) == value

    @pytest.mark.parametrize(
        "entry",
        ["7" * 20_001, "-" + "7" * 20_001, "1/" + "3" * 20_001, "0" * 20_001],
        ids=["num", "negative", "den", "zeros"],
    )
    def test_refused_past_digit_bound(self, entry):
        values = ["1", "0", entry, "5"]
        for cls in (HSeries, GradedClass):
            with pytest.raises(InputParseError, match="^rational literal too long: more than 20000"):
                cls.from_json({"ambient_dim": 3, cls._wire_key: values})

    def test_bound_holds_with_no_interpreter_limit(self):
        # with the int-string limit switched off, int() would read any
        # length; the one-pass reader must refuse past the bound all the same
        code = (
            "from csmcalc.chow import GradedClass\n"
            "from csmcalc.errors import InputParseError\n"
            "for n in (20_000, 20_001):\n"
            "    try:\n"
            "        c = GradedClass.from_json({'ambient_dim': 1, 'coeffs_by_codim': ['7' * n, '1']})\n"
            "        print(len(str(c._nums[0])))\n"
            "    except InputParseError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0", "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.stdout.splitlines() == [
            "20000", "rational literal too long: more than 20000 digits"
        ], done.stderr


HALF = "coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1))"


class TestValueObjects:
    """HSeries, GradedClass and LineBundleOnPn are immutable values: printed,
    compared and hashed field by field, and equal only within one class."""

    VALUES = {
        "HSeries": (HSeries(2, (1, "1/2", 0)), f"HSeries(ambient_dim=2, {HALF})"),
        "GradedClass": (
            GradedClass(2, (F(1), F(1, 2), F(0))), f"GradedClass(ambient_dim=2, {HALF})"
        ),
        "LineBundleOnPn": (LineBundleOnPn(3), "LineBundleOnPn(degree=Fraction(3, 1))"),
    }

    @pytest.mark.parametrize("name", VALUES)
    def test_repr(self, name):
        value, text = self.VALUES[name]
        assert repr(value) == text

    @pytest.mark.parametrize("name", VALUES)
    def test_immutable(self, name):
        value, text = self.VALUES[name]
        for field in list(vars(value)) + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == text

    @pytest.mark.parametrize("name", VALUES)
    def test_pickle_and_copies_are_equal(self, name):
        value = self.VALUES[name][0]
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_equal_values_hash_equal(self):
        a, b = HSeries(1, (1, "1/2")), HSeries.from_coeffs(1, [F(1), F(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert {LineBundleOnPn("1/2"), LineBundleOnPn(F(1, 2))} == {LineBundleOnPn(F(2, 4))}
        assert C(1, 1, 2) != C(1, 1, 3) and C(1, 1, 2) != C(2, 1, 2)

    def test_equal_only_within_one_class(self):
        series, cls = S(2, 1, 2, 3), C(2, 1, 2, 3)
        assert series.coeffs == cls.coeffs
        assert series != cls and cls != series
        assert series.__eq__(cls) is NotImplemented
        assert LineBundleOnPn(3) != F(3) and S(0, 3) != (0, (F(3),))

    def test_keyword_construction(self):
        assert HSeries(ambient_dim=1, coeffs=(1, 2)) == S(1, 1, 2)
        assert GradedClass(coeffs=(0, "4"), ambient_dim=1) == C(1, 0, 4)
        assert LineBundleOnPn(degree="1/2").degree == F(1, 2)
