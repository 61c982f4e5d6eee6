"""Exact characteristic classes of singular projective hypersurfaces.

Computes Fulton, Chern-Mather and Chern-Schwartz-MacPherson classes in
the rational Chow group of P^n from polar-class and Segre-class data,
entirely in arbitrary-precision rational arithmetic.
"""

from .charclass import (
    BundleData, HypersurfaceSpec, InvariantData, csm_from_interpolation, csm_from_polar,
    csm_from_segre, exceptional_multiplicities, fulton_class, interpolated_class,
    mather_double_sum, mather_from_polar, mather_from_segre, segre_from_polar,
    segre_ym_to_yx, segre_yx_to_ym, solve_invariants, solver_lhs, total_polar_class,
)
from .chow import (
    GradedClass, HSeries, LineBundleOnPn, Rational, as_rational, format_rational,
    parse_rational, tangent_chern,
)
from .errors import (
    CharClassError, DegenerateInvariantsError, DimensionMismatchError,
    InconsistentSystemError, InputParseError, NonUnitError, UnderdeterminedSystemError,
    ValidationError,
)

__version__ = "0.1.0"

_FROM_SCENARIOS = ("ScenarioReport", "euler_smooth_hypersurface", "run_scenario")
# the names imported above, less the submodules those imports bind, and the lazy ones
__all__ = sorted(
    {name for name in (*globals(), *_FROM_SCENARIOS) if not name.startswith("_")}
    - {"charclass", "chow", "errors"}
)


def __getattr__(name):  # scenarios, which only the named examples need, loads on first use
    if name == "scenarios" or name in _FROM_SCENARIOS:
        from importlib import import_module

        scenarios = import_module(".scenarios", __name__)
        return scenarios if name == "scenarios" else getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "scenarios", *_FROM_SCENARIOS})

