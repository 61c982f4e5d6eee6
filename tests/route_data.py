"""The seeded wire data of the route sweep, and the hash of every route's answer on it.

``tools/sweep.py`` times the routes on this data, and
``tests/test_route_hashes.py`` checks their answers against
``tests/route_hashes.json``, so the hashes in a ``BENCH_*.json`` file and
the pinned ones are the same numbers.  For each n in ``SIZES`` one
generator, seeded by n, draws in this order: the sweep's two dense kernel
operands, then the sparse and the dense polar spec.  A route's hash is the
SHA-256 of its wire output.  The engine modules are arguments, so a sweep
can run this data through another tree.  Refresh the pinned file only when
answers change on purpose, from the root of a checkout:

    python3 tests/route_data.py > tests/route_hashes.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

SIZES = (3, 10, 24, 30, 60, 120, 240)  # 24: the dense-twist workload's n
DEGREE = 4
INVARIANTS = {"chi": "5", "eu": "3"}
ALPHA = Fraction(2, 5)
UNHASHED = ("from_json", "to_json")  # timed by the sweep, but their output is the input's


def wire_sha256(value) -> str:
    """SHA-256 of a route result's wire form: a class by its to_json, a
    pair of rationals as their strings."""
    wire = value.to_json() if hasattr(value, "to_json") else [str(x) for x in value]
    return hashlib.sha256(json.dumps(wire, sort_keys=True).encode()).hexdigest()


def spec_wire(n, dense, rng) -> dict:
    """A hypersurface (r = n - 1) of degree DEGREE: P_0 = DEGREE [P^(n-1)],
    and P_k a random integer in 1..10^6 in codimension k + 1 for every k
    (dense) or for k = 1 only (sparse)."""

    def single(codim, value):
        coeffs = ["0"] * (n + 1)
        coeffs[codim] = str(value)
        return {"ambient_dim": n, "coeffs_by_codim": coeffs}

    polar = {"0": single(1, DEGREE)}
    for k in range(1, n if dense else min(2, n)):
        polar[str(k)] = single(k + 1, rng.randint(1, 10**6))
    return {"n": n, "r": n - 1, "d": str(DEGREE), "polar": polar}


def draws(n) -> dict:
    """The data at n: integer vectors of n + 1 signed 14-bit (dense-narrow) and
    400-bit (dense-wide) entries, and the sparse and dense specs' wire forms."""
    rng = random.Random(f"sweep-{n}")
    out = {
        operands: [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n + 1)]
        for operands, bits in (("dense-narrow", 14), ("dense-wide", 400))
    }
    for data in ("sparse", "dense"):
        out[data] = spec_wire(n, data == "dense", rng)
    return out


def route_calls(cc, n, wire) -> dict:
    """name: (call, fresh) for every route at n on one spec's wire form.  A
    route that reads a class cached on the spec takes a fresh spec from
    ``fresh()``; the others take no argument."""
    inv = cc.InvariantData.from_json(INVARIANTS)
    spec = cc.HypersurfaceSpec.from_json(wire)
    d = spec.d
    c_fulton = cc.fulton_class(n, d)
    c_mather = cc.mather_from_polar(spec)
    normal = cc.BundleData.line(n, d)
    s_yx = cc.segre_from_polar(spec, normal)
    s_ym = cc.segre_yx_to_ym(s_yx, d, inv)
    c_y = spec.fundamental_class.mul_linear(1, 3)  # any class with c_y[1] != 0
    lhs = c_y.mul_linear(inv.eu - inv.chi, (inv.eu - 1) * d)  # planted: solves to inv
    fresh_spec = lambda: (cc.HypersurfaceSpec.from_json(wire),)  # noqa: E731
    return {
        "from_json": (lambda: cc.HypersurfaceSpec.from_json(wire), None),
        "total_polar_class": (cc.total_polar_class, fresh_spec),
        "mather_from_polar": (cc.mather_from_polar, fresh_spec),
        "to_json": (lambda: c_mather.to_json(), None),
        "mather_double_sum": (cc.mather_double_sum, fresh_spec),
        "csm_from_polar": (lambda s: cc.csm_from_polar(s, inv), fresh_spec),
        "fulton_class": (lambda: cc.fulton_class(n, d), None),
        "interpolated_class": (lambda: cc.interpolated_class(c_fulton, c_mather, d, ALPHA), None),
        "csm_from_interpolation": (
            lambda: cc.csm_from_interpolation(c_fulton, c_mather, d, inv), None
        ),
        "solver_lhs": (lambda: cc.solver_lhs(c_mather, c_fulton, d), None),
        "solve_invariants": (lambda: cc.solve_invariants(lhs, c_y, d), None),
        "segre_from_polar": (lambda s: cc.segre_from_polar(s, normal), fresh_spec),
        "segre_yx_to_ym": (lambda: cc.segre_yx_to_ym(s_yx, d, inv), None),
        "segre_ym_to_yx": (lambda: cc.segre_ym_to_yx(s_ym, d, inv), None),
        "mather_from_segre": (lambda: cc.mather_from_segre(s_yx, n, d), None),
        "csm_from_segre": (lambda: cc.csm_from_segre(s_ym, n, d), None),
    }


def route_hashes(cc) -> dict:
    """"route data n": the SHA-256 of the route's answer, for every hashed route and n."""
    out = {}
    for n in SIZES:
        data = draws(n)
        for kind in ("sparse", "dense"):
            for name, (call, fresh) in route_calls(cc, n, data[kind]).items():
                if name not in UNHASHED:
                    out[f"{name} {kind} {n}"] = wire_sha256(call(*fresh()) if fresh else call())
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from csmcalc import charclass

    print(json.dumps(route_hashes(charclass), indent=1, sort_keys=True))
