"""The series kernels against sympy's power-series arithmetic, n <= 12.

sympy's ``ring_series`` module expands products, inverses and powers of
polynomials over QQ to a given order.  Truncation mod H^{n+1} commutes
with all three, so each expansion is taken once to order H^10 and every
ambient dimension n <= 10 is checked against its first n+1 coefficients.
The dense twist (n = 24) and the packed cap (n = 120) get one check each.
"""

import random
from fractions import Fraction as F

import pytest

from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, tangent_chern

sp = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_mul, rs_pow, rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

QQ = sp.QQ
R, H = ring("H", QQ)
TOP = 10
PREC = TOP + 1  # expansions are exact through H^TOP

_rng = random.Random(20010107)
A = [F(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(TOP + 1)]
B = [F(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(TOP + 1)]
A[0] = F(3, 2)  # a unit, so that A can be inverted


def q(value: F):
    return QQ(value.numerator, value.denominator)


def poly(values):
    return sum((q(v) * H**k for k, v in enumerate(values)), R.zero)


def coeffs(p, n):
    """Coefficients of H^0, ..., H^n of a ring element, as Fractions."""
    out = []
    for k in range(n + 1):
        c = p.get((k,), QQ.zero)
        out.append(F(int(c.numerator), int(c.denominator)))
    return tuple(out)


def test_mul_and_cap_match_series_product():
    product = rs_mul(poly(A), poly(B), H, PREC)
    for n in range(TOP + 1):
        a = HSeries(n, tuple(A[: n + 1]))
        assert (a * HSeries(n, tuple(B[: n + 1]))).coeffs == coeffs(product, n)
        assert a.cap(GradedClass(n, tuple(B[: n + 1]))).coeffs == coeffs(product, n)


def test_inverse_matches_series():
    expected = rs_series_inversion(poly(A), H, PREC)
    for n in range(TOP + 1):
        assert HSeries(n, tuple(A[: n + 1])).inverse().coeffs == coeffs(expected, n)


@pytest.mark.parametrize("exponent", [-1, -3, -8])
def test_negative_power_matches_series(exponent):
    expected = rs_pow(poly(A), exponent, H, PREC)
    for n in range(TOP + 1):
        assert (HSeries(n, tuple(A[: n + 1])) ** exponent).coeffs == coeffs(expected, n)


@pytest.mark.parametrize("offset", [-1, 0, 2])
def test_twist_with_relative_dim_matches_series(offset):
    # with m = n + offset, piece k sits in codimension offset + k of M and
    # is multiplied by (1 + lam*H)^-(offset + k)
    lam = F(-5, 3)
    expected = sum(
        (
            rs_mul(q(b) * H**k, rs_pow(1 + q(lam) * H, -(offset + k), H, PREC), H, PREC)
            for k, b in enumerate(B)
        ),
        R.zero,
    )
    for n in range(max(0, -offset), TOP + 1):
        twisted = GradedClass(n, tuple(B[: n + 1])).twist(LineBundleOnPn(lam), n + offset)
        assert twisted.coeffs == coeffs(expected, n)


def test_dense_twist_matches_series():
    # n = 24 with every piece nonzero and a rational degree: the dense path
    n, lam, rng = 24, F(-7, 3), random.Random(24)
    b = [F(rng.choice((-9, -4, 1, 5, 8)), rng.randint(1, 6)) for _ in range(n + 1)]
    expected = sum(
        (rs_mul(q(x) * H**k, rs_pow(1 + q(lam) * H, -k, H, n + 1), H, n + 1) for k, x in enumerate(b)),
        R.zero,
    )
    assert GradedClass(n, tuple(b)).twist(LineBundleOnPn(lam)).coeffs == coeffs(expected, n)


def test_packed_cap_matches_series():
    # c(TP^120) capped with a dense class of 14-bit entries over 5: the
    # shape of the polar route's cap at n = 120, which takes the packed path
    n, rng = 120, random.Random(120)
    b = [F(rng.choice((-1, 1)) * rng.getrandbits(14), 5) for _ in range(n + 1)]
    expected = rs_mul((1 + H) ** (n + 1), poly(b), H, n + 1)
    assert tangent_chern(n).cap(GradedClass(n, tuple(b))).coeffs == coeffs(expected, n)


@pytest.mark.parametrize("d", [F(4), F(-7, 2)])
def test_tangent_over_divisor_matches_series(d):
    # c(TP^n)/(1 + dH): the series behind the Fulton class
    geometric = rs_series_inversion(1 + q(d) * H, H, PREC)
    for n in range(TOP + 1):
        expected = rs_mul((1 + H) ** (n + 1), geometric, H, PREC)
        ours = tangent_chern(n) * LineBundleOnPn(d).chern(n).inverse()
        assert ours.coeffs == coeffs(expected, n)


@pytest.mark.parametrize("lam", [F(0), F(1), F(-5, 3), F(4)])
def test_line_bundle_power_matches_pow_and_series(lam):
    # the closed form (1 + lam*H)^e against the general operations ** and
    # inverse, and against sympy, for every n <= 12 and |e| <= n + 2
    top = 12
    bundle = LineBundleOnPn(lam)
    for e in range(-top - 2, top + 3):
        expected = rs_pow(1 + q(lam) * H, e, H, top + 1)
        for n in range(max(0, abs(e) - 2), top + 1):
            ours = bundle.chern(n, e)
            assert ours == bundle.chern(n) ** e == bundle.chern(n).inverse() ** -e
            assert ours.coeffs == coeffs(expected, n)


@pytest.mark.parametrize("a,b", [(F(1), F(-5, 3)), (F(-2, 7), F(7, 2)), (F(1, 9), F(0))])
def test_linear_factor_kernel_matches_series(a, b):
    # B times (a + bH), and B divided by (1 + bH)
    product = rs_mul(poly(B), poly([a, b]), H, PREC)
    quotient = rs_mul(poly(B), rs_series_inversion(1 + q(b) * H, H, PREC), H, PREC)
    for n in range(TOP + 1):
        cls = GradedClass(n, tuple(B[: n + 1]))
        assert cls.mul_linear(a, b).coeffs == coeffs(product, n)
        assert cls.div_linear(b).coeffs == coeffs(quotient, n)
