"""Core arithmetic: series, graded classes, dual/twist, JSON wire forms."""

import copy
import math
import pickle
import random
import re
import sys
from fractions import Fraction as F

import pytest

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
        # past the interpreter's limit on int-string conversion
        with pytest.raises(InputParseError):
            parse_rational("1" * 5000)
        with pytest.raises(InputParseError):
            parse_rational("1/" + "3" * 5000)

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


def _reference_parse(value):
    """parse_rational as two parsers: a syntax regex, then Fraction(str)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return F(value)
    if not isinstance(value, str):
        raise InputParseError(f"rational must be a string 'p' or 'p/q', got {type(value).__name__}")
    text = value.strip()
    if not _REFERENCE_RE.fullmatch(text):
        raise InputParseError(f"bad rational literal {value!r}")
    try:
        return F(text)
    except ValueError as exc:
        raise InputParseError(f"rational literal too long: {exc}") from exc


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
    integer groups; it must agree with the regex-then-Fraction(str) path
    on value, error type and error message."""

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
