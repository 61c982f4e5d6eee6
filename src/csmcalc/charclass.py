"""Characteristic classes of singular hypersurfaces from polar and Segre data.

Everything is computed inside the rational Chow group of a declared
ambient P^n.  The inputs a user must supply are classical invariants that
are published (or computable by other means) for many concrete varieties:

* the polar classes [P_0], ..., [P_r] of X in P^n, with [P_0] = [X];
* the action of the divisor class X = c_1(O_M(X)) as a multiple d of the
  hyperplane class (the degree, when X is a hypersurface of P^n itself);
* Segre classes s(Y,X) or s(Y,M) of the singularity subscheme Y, when a
  Segre-side route is wanted;
* the invariant pair (chi, Eu) along the singular locus: the Euler
  characteristic of the local Milnor fiber and the local Euler
  obstruction, both assumed constant along a smooth irreducible Y'.

From these the module produces the Fulton class (virtual tangent
bundle), the Chern-Mather class (two independent polar routes), the
family of classes interpolating between them,

    c_(alpha) = c_F + (1 - alpha)/(1 + alpha*X) * (c_Ma - c_F),

and the Chern-Schwartz-MacPherson class, which the interpolation reaches
at alpha = rho = (1 - Eu)/(chi - Eu) when the invariants are constant.
A solver inverts the relation

    (1 + X)(c_Ma - c_F) = ((Eu - chi) + (Eu - 1) X) . (c(TY') cap [Y'])

to recover (Eu, chi) from global class data alone.

Polar loci, Segre classes and c(TY') are never computed from defining
equations here; they enter as user inputs pushed forward to P^n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from .chow import (
    GradedClass,
    HSeries,
    LineBundleOnPn,
    as_rational,
    parse_rational,
    tangent_chern,
    _Value,
    _alternate,
    _check_ambient_dim,
    _check_int,
    _check_keys,
    _digits,
    _encode,
    _gather,
    _wire,
)
from .errors import (
    DegenerateInvariantsError,
    DimensionMismatchError,
    InconsistentSystemError,
    InputParseError,
    UnderdeterminedSystemError,
    ValidationError,
)


def _check_type(value, kind, what):
    """Refuse an argument that is not a kind with ValidationError, by one isinstance."""
    if not isinstance(value, kind):
        noun = ("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__
        raise ValidationError(f"{what} must be {noun}, got {type(value).__name__}")


class InvariantData(_Value):
    """The invariant pair (chi, Eu) and the derived interpolation weights.

    rho = (1 - Eu)/(chi - Eu) and sigma = 1 - rho = (chi - 1)/(chi - Eu).
    Construction rejects chi = 1 and chi = Eu, where the weights are
    undefined (such values cannot occur for the hypersurfaces covered by
    the interpolation statement).  Both come from the integers of chi = a/b
    and Eu = c/e: rho = (e - c)b/(ae - cb) and sigma = (a - b)e/(ae - cb).
    """

    _fields = ("chi", "eu", "rho", "sigma")

    def __init__(self, chi, eu):
        chi, eu = as_rational(chi), as_rational(eu)
        (a, b), (c, e) = chi.as_integer_ratio(), eu.as_integer_ratio()
        if a == b:
            raise DegenerateInvariantsError("chi = 1 makes rho/sigma undefined")
        det = a * e - c * b
        if not det:
            raise DegenerateInvariantsError("chi = Eu makes rho/sigma undefined")
        self._init(chi, eu, Fraction((e - c) * b, det), Fraction((a - b) * e, det))

    def to_json(self) -> dict:  # shared with BundleData: each field by _encode
        return _encode({f: getattr(self, f) for f in self._fields})

    @classmethod
    def from_json(cls, data) -> "InvariantData":
        _check_keys(data, {"chi", "eu"}, what="invariants")
        return cls(parse_rational(data["chi"]), parse_rational(data["eu"]))


class BundleData(_Value):
    """A vector bundle presented by its rank and total Chern class in H."""

    _fields = ("rank", "total_chern")

    def __init__(self, rank, total_chern):
        _check_int(rank, "bundle rank")
        if not isinstance(total_chern, HSeries):
            raise ValidationError("a total Chern class must be an HSeries")
        if total_chern._nums[0] != total_chern._den:
            raise ValidationError("a total Chern class has constant term 1")
        fields = self.__dict__  # built once or more per route: no _init call
        fields["rank"], fields["total_chern"] = rank, total_chern

    @classmethod
    def line(cls, ambient_dim: int, degree) -> "BundleData":
        return cls(1, LineBundleOnPn(as_rational(degree)).chern(ambient_dim))

    def dual(self) -> "BundleData":
        """Dual bundle: c_k(E*) = (-1)^k c_k(E)."""
        c = self.total_chern
        return BundleData(self.rank, HSeries._reduce(c.ambient_dim, _alternate(c._nums), c._den))

    def twist_by(self, bundle: LineBundleOnPn) -> "BundleData":
        """Tensor by a line bundle, via the splitting-principle formula

        c(E tensor L) = sum_{i<=e} c_i(E) H^i c(L)^{e-i},  e = rank E,
        i.e. the twist of c_0(E), ..., c_e(E) relative to dimension n - e.
        """
        c, e = self.total_chern, self.rank
        n = c.ambient_dim
        low = GradedClass._reduce(n, c._nums[: e + 1] + (0,) * (n - e), c._den).twist(bundle, n - e)
        return BundleData(e, HSeries._reduce(n, low._nums, low._den))

    to_json = InvariantData.to_json

    @classmethod
    def from_json(cls, data) -> "BundleData":
        _check_keys(data, {"rank", "total_chern"}, what="bundle")
        rank = _check_int(data["rank"], "rank", error=InputParseError)
        return cls(rank, HSeries.from_json(data["total_chern"]))


def _polar_entries(polar):  # (index, *GradedClass._piece) per GradedClass given
    try:
        items = polar if isinstance(polar, dict) else dict(enumerate(polar))
    except TypeError:
        kind = type(polar).__name__
        raise ValidationError(f"polar must be a dict or a sequence, got {kind}") from None
    for k, p in items.items():
        _check_int(k, "polar index")
        if not isinstance(p, GradedClass):
            raise ValidationError(f"polar class {k} must be a GradedClass, got {type(p).__name__}")
        yield k, *p._piece()


_SHOWN_DIGITS = 20  # the most digits of a polar key or index that a message echoes


def _brief(digits: str, show=str) -> str:
    """A decimal string as a message shows it: show(digits), or its length past _SHOWN_DIGITS."""
    return show(digits) if len(digits) <= _SHOWN_DIGITS else f"of {len(digits)} digits"


class HypersurfaceSpec(_Value):
    """Polar-class data for a dimension-r subvariety X of P^n.

    d encodes the action of the divisor class X = c_1(O_M(X)) as d*H on
    classes supported on X: the degree of X when X is a hypersurface of
    P^n, a declared (possibly rational) multiple otherwise.  polar[k] is
    the pushforward of the k-th polar class, supported in dimension r-k;
    missing entries default to zero, and polar[0] is the fundamental
    class [X].  ambient_tangent optionally carries c(TM) restricted to X
    (expressed in H) for a hypersurface ambient M other than P^n; it
    defaults to c(TP^n).  The spec stores (-1)^k T_k for [P_k] = T_k/den
    over the least common den, and builds ``polar`` on first read.
    """

    _fields = ("n", "r", "d", "polar", "ambient_tangent")

    def __init__(self, n, r, d, polar, ambient_tangent=None):
        self._fill(n, r, d, _polar_entries(polar), ambient_tangent)

    def _fill(self, n, r, d, entries, ambient_tangent):  # the one check of both constructors
        _check_ambient_dim(n, "ambient projective dimension n", low=1)
        if _check_int(r, "dim X = r") >= n:
            raise ValidationError("need 0 <= r < n for a proper subvariety")
        d = as_rational(d)
        values = [(0, 1)] * (r + 1)
        for k, m, support, p, q in entries:
            if k > r:
                raise ValidationError(f"polar class index {_brief(_digits(k))} exceeds dim X = {r}")
            if m != n:
                raise DimensionMismatchError(f"polar class {k} lives on P^{m}, spec declares P^{n}")
            if support not in ((), (n - r + k,)):
                raise ValidationError(f"polar class {k} must be supported in dimension {r - k}")
            values[k] = p, q
        if ambient_tangent is not None:
            if not isinstance(ambient_tangent, HSeries):
                raise ValidationError("ambient_tangent must be an HSeries")
            if ambient_tangent.ambient_dim != n:
                raise DimensionMismatchError(
                    "ambient_tangent series has the wrong ambient dimension"
                )
            if ambient_tangent._nums[0] != ambient_tangent._den:
                raise ValidationError("ambient_tangent must have constant term 1")
        nums, den = _gather(values)
        g = gcd(den, *nums)  # wire literals need not be in lowest terms
        fields = self.__dict__
        fields["n"], fields["r"], fields["d"], fields["ambient_tangent"] = n, r, d, ambient_tangent
        fields["_signed"], fields["_den"] = _alternate([x // g for x in nums]), den // g
        return self

    def _polar_class(self, k) -> GradedClass:
        nums = [0] * (self.n + 1)
        nums[self.n - self.r + k] = (-1) ** k * self._signed[k]
        return GradedClass._reduce(self.n, nums, self._den)

    @cached_property
    def polar(self) -> tuple[GradedClass, ...]:
        return tuple(map(self._polar_class, range(self.r + 1)))

    @property
    def fundamental_class(self) -> GradedClass:
        return self._polar_class(0)

    @cached_property
    def _total_polar(self) -> GradedClass:  # read by total_polar_class
        gathered = GradedClass._reduce(self.n, (0,) * (self.n - self.r) + self._signed, self._den)
        return gathered.twist(LineBundleOnPn(Fraction(1)), self.n)

    @cached_property
    def _mather(self) -> GradedClass:  # read by mather_from_polar, so by csm_from_polar
        return tangent_chern(self.n).cap(self._total_polar)

    def to_json(self) -> dict:  # field by field: no GradedClass, no _encode pass per entry
        n, c, polar = self.n, self.n - self.r, {}
        for k, t in enumerate(self._signed):
            if t:  # [P_k] as its one literal at codimension n-r+k, "0" elsewhere
                coeffs = ["0"] * (n + 1)
                coeffs[c + k] = _wire((-1) ** k * t, self._den)
                polar[str(k)] = {"ambient_dim": n, "coeffs_by_codim": coeffs}
        data = {"n": n, "r": self.r, "d": _encode(self.d), "polar": polar}
        if self.ambient_tangent is not None:
            data["ambient_tangent"] = self.ambient_tangent.to_json()
        return data

    @classmethod
    def from_json(cls, data) -> "HypersurfaceSpec":
        _check_keys(data, {"n", "r", "d", "polar"}, optional={"ambient_tangent"}, what="spec")
        n = _check_int(data["n"], "n", error=InputParseError)
        r = _check_int(data["r"], "r", error=InputParseError)
        if not isinstance(data["polar"], dict):
            raise InputParseError("polar must be an object keyed by polar index")
        entries = {}
        for key, value in data["polar"].items():
            if not isinstance(key, str) or not key.isdecimal():
                raise InputParseError(f"polar key {key!r} is not a polar index")
            try:
                index = int(key)
            except ValueError:  # past the int-string digit limit: exit 2
                too_long = f"rational literal too long: polar key {_brief(key)}"
                raise InputParseError(too_long) from None
            if index in entries:  # "1", "01" and "\u0661" name one index
                shown = _brief(key, repr)
                raise InputParseError(f"polar key {shown} repeats polar index {_brief(str(index))}")
            entries[index] = index, *GradedClass._wire_piece(value, n - r + index)
        tangent = HSeries.from_json(data["ambient_tangent"]) if "ambient_tangent" in data else None
        return cls.__new__(cls)._fill(n, r, parse_rational(data["d"]), entries.values(), tangent)


def fulton_class(n: int, d) -> GradedClass:
    """Fulton class of a degree-d hypersurface of P^n.

    c_F = c(TP^n) cap [X]/(1+X), capped with [X] = d*H first and divided
    once by (1 + d*H) in the linear-factor kernel; for smooth X this is the
    total Chern class of X, and its degree-zero part is its Euler characteristic.
    """
    _check_ambient_dim(n, "n", low=1)
    d = as_rational(d)
    return tangent_chern(n).cap(GradedClass.single(n, 1, d)).div_linear(d)


def total_polar_class(spec: HypersurfaceSpec) -> GradedClass:
    """The signed, O(1)-twisted aggregate of all polar classes,

        [P] = (-1)^(n-r) sum_k dual([P_k]) twisted by O(1),

    with dual/twist taken relative to P^n.  Both are linear and [P_k]
    lives only in codimension n-r+k, where dual and the outer sign
    multiply it by (-1)^(n-r) * (-1)^(n-r+k) = (-1)^k; so the polar
    classes are gathered as (-1)^k [P_k] and twisted once, cached on the spec.
    """
    _check_type(spec, HypersurfaceSpec, "spec")
    return spec._total_polar


def mather_from_polar(spec: HypersurfaceSpec) -> GradedClass:
    """Chern-Mather class as c(TP^n) cap [P] (Piene), capped once per spec:
    cached on the spec, like [P], and read by :func:`csm_from_polar`."""
    _check_type(spec, HypersurfaceSpec, "spec")
    return spec._mather


def mather_double_sum(spec: HypersurfaceSpec) -> GradedClass:
    """Chern-Mather class by the explicit polar double sum

        sum_{k>=0} sum_{i=0}^{k} (-1)^(k-i) C(r+1-k+i, i) H^i [P_{k-i}].

    Independent route from :func:`mather_from_polar`: the two agree on every
    well-formed input; terms with k > r fall below dimension zero and drop.
    On integers, [P_j] = T_j/den in codimension n-r+j adds (-1)^j * C(m, i) *
    T_j to n-r+j+i, m = r+1-j, by the exact step C(m, i+1) = C(m, i)*(m-i)/(i+1).
    """
    _check_type(spec, HypersurfaceSpec, "spec")
    n, r = spec.n, spec.r
    out = [0] * (n + 1)
    for j, t in enumerate(spec._signed):
        if t:
            m = r + 1 - j
            for i in range(m):  # t * C(m, i), then t * C(m, i+1) by one exact step
                out[n - r + j + i] += t
                t = t * (m - i) // (i + 1)
    return GradedClass._reduce(n, out, spec._den)


def interpolated_class(
    c_fulton: GradedClass, c_mather: GradedClass, d, alpha
) -> GradedClass:
    """The weight-alpha member of the family joining Mather to Fulton:

        c_(alpha) = c_F + (1 - alpha)/(1 + alpha*X) cap (c_Ma - c_F)

    with X acting as d*H: (1 - alpha)*c_Ma + (alpha - 1)*c_F divided by
    (1 + alpha*d*H) in one pass of the linear-factor kernel, read on the class
    so that _check_dim refuses either class as c_Ma - c_F would.  Defined for
    every rational alpha; alpha = 0 returns c_Ma and alpha = 1 returns c_F exactly.
    """
    lam = (alpha := as_rational(alpha)) * as_rational(d)
    if not isinstance(c_mather, (GradedClass, HSeries)):  # it has no _check_dim to refuse it
        raise ValidationError(f"c_mather must be a GradedClass, got {type(c_mather).__name__}")
    return c_fulton + GradedClass._div_linear_sum(c_mather, 1 - alpha, c_fulton, alpha - 1, lam)


def csm_from_interpolation(
    c_fulton: GradedClass, c_mather: GradedClass, d, inv: InvariantData
) -> GradedClass:
    """Chern-Schwartz-MacPherson class: the interpolation at alpha = rho."""
    _check_type(inv, InvariantData, "inv")
    return interpolated_class(c_fulton, c_mather, d, inv.rho)


def csm_from_polar(spec: HypersurfaceSpec, inv: InvariantData) -> GradedClass:
    """CSM class straight from polar data, for every ambient M:

        c_SM = (c(TM) cap rho[X] + sigma c_Ma) / (1 + rho X),

    with c_Ma = c(TP^n) cap [P] the Mather class of :func:`mather_from_polar`,
    read from the spec rather than capped again.  c(TM) is
    ``spec.ambient_tangent``, c(TP^n) when it is not given, and X acts as
    ``spec.d`` times H; the cap with the one-piece [X] is O(n), and rho times it
    plus sigma c_Ma is divided by (1 + rho*d*H) in one linear-factor kernel pass.
    """
    _check_type(spec, HypersurfaceSpec, "spec")
    _check_type(inv, InvariantData, "inv")
    virtual = (spec.ambient_tangent or tangent_chern(spec.n)).cap(spec.fundamental_class)
    return virtual._div_linear_sum(inv.rho, mather_from_polar(spec), inv.sigma, inv.rho * spec.d)


def segre_ym_to_yx(s_ym: GradedClass, d, inv: InvariantData) -> GradedClass:
    """Segre class of Y in X from the one in M:

        s(Y,X) = ((chi - Eu)/(chi - 1) + X) . s(Y,M)  =  (1/sigma + X) . s(Y,M),

    one multiplication in the linear-factor kernel.
    """
    _check_type(s_ym, GradedClass, "s_ym")
    _check_type(inv, InvariantData, "inv")
    return s_ym.mul_linear(1 / inv.sigma, d)


def segre_yx_to_ym(s_yx: GradedClass, d, inv: InvariantData) -> GradedClass:
    """Inverse conversion: s(Y,M) = sigma/(1 + sigma X) cap s(Y,X), in one
    pass of the linear-factor kernel, the scaling by sigma folded in."""
    _check_type(s_yx, GradedClass, "s_yx")
    _check_type(inv, InvariantData, "inv")
    return s_yx._div_linear_sum(inv.sigma, s_yx, 0, inv.sigma * as_rational(d))


def mather_from_segre(s_yx: GradedClass, n: int, d) -> GradedClass:
    """Chern-Mather class of a degree-d hypersurface X of P^n from s(Y,X):

        c_Ma = c(TP^n) cap ( [X]/(1+X) + dual(s(Y,X)) twisted by O(d) ).
    """
    _check_type(s_yx, GradedClass, "s_yx")
    d = as_rational(d)
    x_in_pn = GradedClass.single(n, 1, d).div_linear(d)  # s(X, P^n) = [X]/(1+X)
    return tangent_chern(n).cap(x_in_pn + s_yx.dual(n).twist(LineBundleOnPn(d), n))


def csm_from_segre(s_ym: GradedClass, n: int, d) -> GradedClass:
    """CSM class of a degree-d hypersurface X of P^n from s(Y, P^n):

        c_SM = c(TP^n) cap ( [X]/(1+X) + dual(c(L) cap s(Y,M)) twisted by O(d) )

    with L = O(d) restricted to Y: the Mather formula of
    :func:`mather_from_segre` with s(Y,X) replaced by c(L) cap s(Y,M), one
    multiplication by (1 + d*H) in the linear-factor kernel.
    """
    _check_type(s_ym, GradedClass, "s_ym")
    return mather_from_segre(s_ym.mul_linear(1, d), n, d)


def segre_from_polar(
    spec: HypersurfaceSpec, normal: BundleData, d=None
) -> GradedClass:
    """Segre class s(Y,X) of the singularity subscheme from polar data:

        s(Y,X) = [X] + c(N* tensor L)/c(L)^(n-r-1) cap (dual([P]) twisted by L)

    where N is the rank n-r normal bundle of X in P^n, L acts as d*H
    (defaulting to ``spec.d``), and dual/twist are taken relative to
    the dimension r+1 of the nonsingular variety in which X is a
    hypersurface.  For a hypersurface of P^n itself (r = n-1, N = O(d))
    the factor collapses to 1 and the formula reduces to the Pluecker
    form [X] + dual([P]) twisted by O(d).  As twist(G, r+1) = c(L)^(n-r-1)
    cap twist(G, n), the division cancels: the twist is taken relative to n.
    """
    _check_type(spec, HypersurfaceSpec, "spec")
    _check_type(normal, BundleData, "normal")
    if normal.rank != spec.n - spec.r:
        raise ValidationError(
            f"normal bundle rank {normal.rank} != codimension {spec.n - spec.r}"
        )
    if normal.total_chern.ambient_dim != spec.n:
        raise DimensionMismatchError("normal bundle series has the wrong ambient dimension")
    bundle = LineBundleOnPn(spec.d if d is None else d)
    twisted_polar = total_polar_class(spec).dual(spec.r + 1).twist(bundle)
    return spec.fundamental_class + normal.dual().twist_by(bundle).total_chern.cap(twisted_polar)


def solver_lhs(c_mather: GradedClass, c_fulton: GradedClass, d) -> GradedClass:
    """(1 + X) cap (c_Ma - c_F): the singular correction term that the
    invariant solver equates with ((Eu-chi) + (Eu-1)X) . (c(TY') cap [Y']),
    one multiplication by (1 + d*H) in the linear-factor kernel."""
    _check_type(c_mather, GradedClass, "c_mather")
    return (c_mather - c_fulton).mul_linear(1, d)


def solve_invariants(
    lhs: GradedClass, c_y: GradedClass, d
) -> tuple[Fraction, Fraction]:
    """Recover (Eu, chi) from  lhs = ((Eu-chi) + (Eu-1)X) . c_y  exactly.

    c_y is the pushforward of c(TY') cap [Y'].  One linear equation per
    codimension in the unknowns u = Eu - chi and v = Eu - 1; the system
    must have rank 2 (it cannot when d = 0 or Y' is zero-dimensional),
    every equation must hold exactly, and the solved invariants must be
    non-degenerate.  Returns (eu, chi).

    Solved on integers: with d = p/q and c_y, lhs over their common
    denominators dy, dl, every row is scaled by q*dy*dl.  The system is
    bidiagonal: the first row k0 with c_y[k0] != 0 gives u, row k0+1 gives
    v, so the rank is 2 exactly when d != 0 and k0 < n.
    """
    _check_type(lhs, GradedClass, "lhs")
    _check_type(c_y, GradedClass, "c_y")
    if lhs.ambient_dim != c_y.ambient_dim:
        raise DimensionMismatchError("solver inputs disagree on P^n")
    d = as_rational(d)
    p, q = d.numerator, d.denominator
    ys, dy = c_y._nums, c_y._den
    ls, dl = lhs._nums, lhs._den
    # Row k:  u * c_y[k] + v * d * c_y[k-1]  =  lhs[k], times q*dy*dl
    rows = [
        (y * q * dl, p * ys[k - 1] * dl if k else 0, c * q * dy)
        for k, (y, c) in enumerate(zip(ys, ls))
    ]

    k0 = next((k for k, y in enumerate(ys) if y), len(ys))
    if not p or k0 >= lhs.ambient_dim:
        raise UnderdeterminedSystemError(
            "invariant system has rank < 2 (need d != 0 and dim Y' > 0)"
        )
    (a1, _, c1), (a2, b2, c2) = rows[k0 : k0 + 2]
    det = a1 * b2
    u_det = c1 * b2  # u = c1/a1, then v from row k0+1
    v_det = a1 * c2 - a2 * c1
    for a, b, c in rows:
        if a * u_det + b * v_det != c * det:
            raise InconsistentSystemError(
                "class data is not consistent with constant (Eu, chi)"
            )
    u, v = Fraction(u_det, det), Fraction(v_det, det)
    eu = v + 1
    chi = eu - u
    InvariantData(chi, eu)  # reject chi = 1 and chi = Eu
    return eu, chi


def exceptional_multiplicities(
    chi, eu, dim_x: int, dim_y: int
) -> tuple[Fraction, Fraction]:
    """Cycle multiplicities (m, n) attached to the singularity data:

        m = (-1)^(dim X - dim Y) (chi - 1),
        n = (-1)^(dim X - dim Y) (chi - Eu),

    so that n/m = (chi - Eu)/(chi - 1) = 1/sigma.
    """
    if _check_int(dim_x, "dim X") <= _check_int(dim_y, "dim Y'"):
        raise ValidationError("need dim X > dim Y' >= 0")
    sign = (-1) ** (dim_x - dim_y)
    chi = as_rational(chi)
    eu = as_rational(eu)
    return sign * (chi - 1), sign * (chi - eu)
