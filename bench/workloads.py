"""Seeded inputs, queries and oracles for the csmcalc benchmark.

Inputs are generated here with plain ``Fraction`` arithmetic and handed to
the engine only as wire JSON, so the generator shares no code with the
program under test.  Each workload owns a fixed-size *pool* of inputs that
the measured phase cycles through; the first pass over the pool fixes the
workload's output checksum, and every later answer to the same input must
be bit-identical to the first.

Four workloads, split by which mechanism does the work:

* ``dense-twist``  -- n = 24, every polar class nonzero: ``GradedClass.twist``
  and the ``**``/``inverse``/``__mul__`` chain under it dominate.
* ``sparse-polar`` -- n = 120, only P_0 and P_1 nonzero: twist acts on at
  most two pieces, so the convolution kernels and the ``is_zero`` scan in
  ``mather_double_sum`` dominate.
* ``small-batch``  -- each query a batch of one input for every n from 2 to
  8 plus a named scenario: per-object overhead (construction, validation,
  ``Fraction`` boxing) dominates.
* ``cli-oneshot``  -- ``python -m csmcalc.cli`` as a subprocess over the
  README commands: interpreter start-up and import dominate.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = "src/csmcalc/fixtures"
ENGINE_MODULES = ("chow", "charclass", "scenarios", "cli")


class EngineMissing(RuntimeError):
    """The checkout holds no ``src/csmcalc`` to benchmark."""


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# engine loading


def load_engine() -> SimpleNamespace:
    """Import csmcalc afresh from ``src/`` of this checkout.

    Previously imported ``csmcalc`` modules are dropped first, so every
    call pays the package's full import cost; that is what ``setup_s``
    measures when set-up is repeated within one run.
    """
    if not (SRC / "csmcalc" / "__init__.py").is_file():
        raise EngineMissing(f"no csmcalc package under {SRC}")
    for name in [m for m in sys.modules if m == "csmcalc" or m.startswith("csmcalc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("csmcalc")
    if Path(package.__file__).resolve().parent != SRC / "csmcalc":
        raise EngineMissing(f"csmcalc imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"csmcalc.{name}") for name in ENGINE_MODULES}
    )


# --------------------------------------------------------------------------
# wire-JSON generation (no engine code)


def _wire_class(n, coeffs) -> dict:
    return {"ambient_dim": n, "coeffs_by_codim": [str(c) for c in coeffs]}


def _single(n, codim, value) -> dict:
    coeffs = [0] * (n + 1)
    coeffs[codim] = value
    return _wire_class(n, coeffs)


# Degree, invariants (eu, chi) and interpolation weight set the size of the
# rationals a query works with, and so its cost.  Every pool takes them from
# this table in equal shares: a seed changes the order of the inputs and all
# their other coefficients, not how much work the pool holds.  Every row has chi != 1, chi != eu, eu != 1, alpha != 0, 1.
MIX = (
    (2, 2, -1, Fraction(1, 2)),
    (3, 0, -2, Fraction(-1, 3)),
    (4, 3, 5, Fraction(2, 5)),
    (5, -1, 2, Fraction(3, 4)),
    (6, 2, 4, Fraction(-2, 3)),
    (7, -2, 3, Fraction(1, 3)),
    (8, 4, -3, Fraction(-3, 2)),
    (9, 0, 3, Fraction(5, 7)),
)


def make_class_item(rng, n: int, mix, *, dense: bool, codim2: bool) -> dict:
    """One class query as wire JSON, with the values its oracles need.

    A hypersurface (r = n-1) has P_0 = d[P^{n-1}], which the Fulton-based
    interpolation route assumes.  A codimension-2 item is a complete
    intersection of degrees (d1, d) with normal bundle O(d1) + O(d).
    """
    d, eu, chi, alpha = mix
    eu, chi = Fraction(eu), Fraction(chi)
    if codim2:
        r, d1 = n - 2, rng.randint(2, 5)
        polar = {"0": _single(n, 2, d1 * d)}
        normal = [1, d1 + d, d1 * d] + [0] * (n - 2)
    else:
        r, normal = n - 1, None
        polar = {"0": _single(n, 1, d)}
    top = r if dense else min(1, r)
    for k in range(1, top + 1):
        polar[str(k)] = _single(n, n - r + k, rng.randint(1, 99))

    # planted solver system: lhs = ((Eu - chi) + (Eu - 1) d H) . c_y
    first = min(2, n - 1)
    c_y = [0] * first + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - first)]
    lhs = [
        (eu - chi) * c_y[k] + ((eu - 1) * d * c_y[k - 1] if k else 0) for k in range(n + 1)
    ]
    item = {
        "kind": "class",
        "spec": {"n": n, "r": r, "d": str(d), "polar": polar},
        "invariants": {"chi": str(chi), "eu": str(eu)},
        "planted": {"lhs": _wire_class(n, lhs), "c_y": _wire_class(n, c_y)},
        "expect": {"eu": str(eu), "chi": str(chi)},
    }
    if normal is None:
        item["alpha"] = str(alpha)
        # invariants whose rho equals alpha: csm_from_polar then equals c_(alpha)
        item["expect"]["alpha_invariants"] = {
            "chi": str(eu + (1 - eu) / alpha),
            "eu": str(eu),
        }
    else:
        item["normal"] = {
            "rank": 2,
            "total_chern": {"ambient_dim": n, "coeffs_by_degree": [str(c) for c in normal]},
        }
    return item


# Scenario inputs, taken in turn like MIX rows, so that every pool holds
# the same scenario work; the seed decides which query gets which.
SCENARIOS = (
    ("tangent-developable", {}),
    ("cone-over-nodal-curve", {"d": 3}),
    ("smooth-hypersurface", {"n": 3, "d": 4}),
    ("tangent-developable", {}),
    ("cone-over-nodal-curve", {"d": 7}),
    ("smooth-hypersurface", {"n": 8, "d": 2}),
    ("cone-over-nodal-curve", {"d": 5}),
    ("smooth-hypersurface", {"n": 5, "d": 6}),
)


def make_scenario_item(index: int) -> dict:
    name, params = SCENARIOS[index % len(SCENARIOS)]
    return {"kind": "scenario", "name": name, "params": params}


# --------------------------------------------------------------------------
# queries (timed) and oracles (untimed)


def no_lap() -> None:
    """The ``lap`` of an untimed query."""


def class_query(eng, item: dict, segre: bool, lap=no_lap) -> dict:
    """Parse one wire input, run every applicable route, return wire JSON.

    ``lap`` is called after each top-level route, so that the caller can
    time the query in segments.
    """
    cc = eng.charclass

    def call(fn, *args):
        out = fn(*args)
        lap()
        return out

    spec = cc.HypersurfaceSpec.from_json(item["spec"])
    inv = cc.InvariantData.from_json(item["invariants"])
    n, d = spec.n, spec.d
    out = {
        "total_polar": call(cc.total_polar_class, spec),
        "mather_polar": call(cc.mather_from_polar, spec),
        "mather_double_sum": call(cc.mather_double_sum, spec),
        "csm_polar": call(cc.csm_from_polar, spec, inv),
    }
    hypersurface = "normal" not in item
    if hypersurface:
        c_fulton = call(cc.fulton_class, n, d)
        alpha = eng.chow.parse_rational(item["alpha"])
        out["fulton"] = c_fulton
        out["interpolated"] = call(cc.interpolated_class, c_fulton, out["mather_polar"], d, alpha)
        out["csm_interpolation"] = call(
            cc.csm_from_interpolation, c_fulton, out["mather_polar"], d, inv
        )
        out["solver_lhs"] = call(cc.solver_lhs, out["mather_polar"], c_fulton, d)
    lhs = eng.chow.GradedClass.from_json(item["planted"]["lhs"])
    c_y = eng.chow.GradedClass.from_json(item["planted"]["c_y"])
    eu, chi = call(cc.solve_invariants, lhs, c_y, d)
    if segre:
        if hypersurface:
            normal = cc.BundleData.line(n, d)
        else:
            normal = cc.BundleData.from_json(item["normal"])
        s_yx = call(cc.segre_from_polar, spec, normal)
        s_ym = call(cc.segre_yx_to_ym, s_yx, d, inv)
        out["s_yx"], out["s_ym"] = s_yx, s_ym
        out["s_yx_round_trip"] = call(cc.segre_ym_to_yx, s_ym, d, inv)
        if hypersurface:
            out["csm_segre"] = call(cc.csm_from_segre, s_ym, n, d)
            out["mather_segre"] = call(cc.mather_from_segre, s_yx, n, d)
    wire = {key: value.to_json() for key, value in out.items()}
    wire["solved"] = {"eu": str(eu), "chi": str(chi)}
    return wire


def class_oracle(eng, item: dict, wire: dict) -> list[str]:
    """Names of the identities a class answer breaks (empty when correct)."""
    broken = []

    def same(name, a, b):
        if wire.get(a) != wire.get(b) or a not in wire:
            broken.append(name)

    same("mather_cap_eq_double_sum", "mather_polar", "mather_double_sum")
    if "csm_interpolation" in wire:
        same("csm_interpolation_eq_polar", "csm_interpolation", "csm_polar")
    if "csm_segre" in wire:
        same("csm_segre_eq_polar", "csm_segre", "csm_polar")
        same("mather_segre_eq_polar", "mather_segre", "mather_polar")
    if "s_yx" in wire:
        same("segre_round_trip", "s_yx_round_trip", "s_yx")
    expect = item["expect"]
    if wire["solved"] != {"eu": expect["eu"], "chi": expect["chi"]}:
        broken.append("planted_invariants_recovered")
    if "alpha_invariants" in expect:
        cc = eng.charclass
        spec = cc.HypersurfaceSpec.from_json(item["spec"])
        inv = cc.InvariantData.from_json(expect["alpha_invariants"])
        if wire["interpolated"] != cc.csm_from_polar(spec, inv).to_json():
            broken.append("interpolated_eq_polar_at_alpha")
    return broken


def scenario_query(eng, item: dict) -> dict:
    return eng.scenarios.run_scenario(item["name"], **item["params"]).to_json()


# --------------------------------------------------------------------------
# CLI commands: the README examples on the shipped fixtures

CLI_COMMANDS = (
    ("fulton", "--n", "3", "--d", "4"),
    ("csm", "--spec", f"{FIXTURES}/tangent_developable_spec.json", "--chi=-1", "--eu=2"),
    (
        "solve-invariants",
        "--lhs", f"{FIXTURES}/tangent_developable_lhs.json",
        "--cy", f"{FIXTURES}/tangent_developable_cy.json",
        "--d", "4",
    ),
    ("run-scenario", "cone-over-nodal-curve", "--param", "d=5"),
    (
        "mather", "--spec", f"{FIXTURES}/tangent_developable_spec.json",
        "--method", "double-sum", "--format", "json",
    ),
    ("segre-polar", "--spec", f"{FIXTURES}/tangent_developable_spec.json"),
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def cli_subprocess(argv) -> tuple[int, str]:
    """One ``PYTHONPATH=src python -m csmcalc.cli ...`` call from the checkout root."""
    proc = subprocess.run(
        [sys.executable, "-m", "csmcalc.cli", *argv],
        cwd=ROOT,
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=60,
        check=False,
    )
    return proc.returncode, proc.stdout


def cli_inprocess(eng, argv) -> tuple[int, str]:
    """``cli.run(argv)`` in this process with stdout captured."""
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buffer):
            code = eng.cli.run(list(argv))
    finally:
        os.chdir(cwd)
    return code, buffer.getvalue()


@functools.cache
def load_recorded() -> dict:
    return json.loads((Path(__file__).with_name("recorded.json")).read_text())


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class EngineWorkload:
    """In-process queries against the engine's public functions.

    A query asks for one class input of each ambient dimension in ``dims``,
    plus one named scenario when ``scenarios`` is set.
    """

    name: str
    why: str
    dims: tuple[int, ...]
    quick_dims: tuple[int, ...]
    pool_size: int
    dense: bool
    segre: bool
    scenarios: bool = False

    def make_pool(self, seed: int, quick: bool = False) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        size = 4 if quick else self.pool_size
        dims = self.quick_dims if quick else self.dims
        # stratified draws: every pool holds the same multiset of shapes
        # (n, MIX row, codimension); the seed deals them out to the queries
        shapes = [
            (dims[k % len(dims)], MIX[k % len(MIX)], self.segre and k % 4 == 3)
            for k in range(size * len(dims))
        ]
        by_n = [shapes[i :: len(dims)] for i in range(len(dims))]
        for group in by_n:
            rng.shuffle(group)
        pool = []
        for q in range(size):
            inputs = [
                make_class_item(rng, n, mix, dense=self.dense, codim2=codim2)
                for n, mix, codim2 in (group[q] for group in by_n)
            ]
            pool.append(inputs)
        if self.scenarios:
            scenarios = [make_scenario_item(q) for q in range(size)]
            rng.shuffle(scenarios)
            for inputs, scenario in zip(pool, scenarios):
                inputs.append(scenario)
        return pool

    def warm_up(self, eng) -> None:
        # fixed inputs, so that set-up does the same work whatever the seed
        for item in self.make_pool(0, quick=True)[:2]:
            self.query(eng, item)

    def query(self, eng, item: list[dict], lap=no_lap) -> list[dict]:
        return [
            scenario_query(eng, x) if x["kind"] == "scenario"
            else class_query(eng, x, self.segre, lap)
            for x in item
        ]

    inprocess_query = query

    def oracle(self, eng, item: list[dict], wire: list[dict]) -> list[str]:
        broken = []
        for x, answer in zip(item, wire):
            if x["kind"] == "class":
                broken += class_oracle(eng, x, answer)
            elif answer["status"] != "pass":
                broken.append("scenario_report_passed")
        return broken


@dataclass(frozen=True)
class CliWorkload:
    """Subprocess calls of the command-line front end, one child at a time."""

    name: str
    why: str

    def make_pool(self, seed: int, quick: bool = False) -> list[dict]:
        order = list(range(len(CLI_COMMANDS)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return [{"kind": "cli", "argv": list(CLI_COMMANDS[i])} for i in order]

    def warm_up(self, eng) -> None:
        self.query(eng, {"kind": "cli", "argv": list(CLI_COMMANDS[0])})

    def query(self, eng, item: dict, lap=no_lap):
        return cli_subprocess(item["argv"])

    def inprocess_query(self, eng, item: dict, lap=no_lap):
        return cli_inprocess(eng, item["argv"])

    def oracle(self, eng, item: dict, wire) -> list[str]:
        code, stdout = wire
        expected = load_recorded()["cli_stdout_sha256"][" ".join(item["argv"])]
        broken = [] if code == 0 else ["exit_code_0"]
        if sha256_text(stdout) != expected:
            broken.append("stdout_sha256")
        return broken


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            "dense-twist",
            "n=24, every polar class nonzero: twist -> ** -> inverse/mul (the n^4 cliff) does the work",
            dims=(24,),
            quick_dims=(6,),
            pool_size=4,
            dense=True,
            segre=True,
        ),
        EngineWorkload(
            "sparse-polar",
            "n=120, only P_0 and P_1 nonzero: the mul/cap/inverse kernels and the is_zero scan do the work",
            dims=(120,),
            quick_dims=(12,),
            pool_size=7,
            dense=False,
            segre=False,
        ),
        EngineWorkload(
            "small-batch",
            "batches of n = 2..8 plus a named scenario: per-object construction and Fraction boxing do the work",
            dims=tuple(range(2, 9)),
            quick_dims=tuple(range(2, 9)),
            pool_size=10,
            dense=True,
            segre=True,
            scenarios=True,
        ),
        CliWorkload(
            "cli-oneshot",
            "python -m csmcalc.cli as a subprocess on the README commands: start-up and import do the work",
        ),
    )
}
