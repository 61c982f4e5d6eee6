"""Outside-in tracer: timing wrappers installed on csmcalc's public functions.

Nothing in ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
module and class attributes of a freshly loaded engine with wrappers and
:meth:`Tracer.uninstall` puts the originals back.  Callers must reach the
engine through module attributes (``csmcalc.charclass.fulton_class``):
the re-exports in ``csmcalc/__init__`` were bound at import time and do
not see the patches.

Spans (name, start, end, parent, query) are held in memory; a span's self
time is its duration minus that of its child spans.  Calls that are tiny
and frequent (``GradedClass.is_zero``, ``__post_init__``,
``ScenarioReport.check``) are counted, not spanned.  Two counts are
computed exactly from the operands of the convolution kernels: the number
of ``Fraction`` products they perform and the largest numerator or
denominator, in bits, among the kernels' results.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

ROUTES = (
    "fulton_class",
    "total_polar_class",
    "mather_from_polar",
    "mather_double_sum",
    "interpolated_class",
    "csm_from_interpolation",
    "csm_from_polar",
    "csm_from_segre",
    "segre_from_polar",
    "segre_yx_to_ym",
    "segre_ym_to_yx",
    "mather_from_segre",
    "solver_lhs",
    "solve_invariants",
)
CLASS_METHODS = ("HypersurfaceSpec.from_json", "BundleData.twist_by")
SCENARIOS = ("tangent-developable", "cone-over-nodal-curve", "smooth-hypersurface")
KERNELS = ("HSeries.mul", "HSeries.inverse", "HSeries.pow", "HSeries.cap",
           "GradedClass.twist", "GradedClass.dual")


def _nonzero_prefix(coeffs) -> list[int]:
    """counts[m] = number of nonzero coeffs[0..m]."""
    counts, total = [], 0
    for c in coeffs:
        total += bool(c)
        counts.append(total)
    return counts


def _conv_mults(a, b) -> int:
    # truncated convolution: one product per nonzero a_i, nonzero b_j, i + j <= n
    prefix = _nonzero_prefix(b)
    n = len(a) - 1
    return sum(prefix[n - i] for i, x in enumerate(a) if x)


def _inverse_mults(coeffs) -> int:
    prefix = _nonzero_prefix(coeffs)
    return sum(prefix[k] - bool(coeffs[0]) for k in range(1, len(coeffs)))


def _twist_mults(cls, bundle, relative_dim) -> int:
    # piece k is multiplied by (1 + lam H)^e, e = -(codim in M); that series
    # has 1 nonzero term when lam = 0 or e = 0, all terms when e < 0, and
    # e + 1 terms when e > 0
    n = cls.ambient_dim
    m = n if relative_dim is None else relative_dim
    total = 0
    for k, a in enumerate(cls.coeffs):
        if not a:
            continue
        e = n - k - m
        width = n + 1 - k
        if not bundle.degree or e == 0:
            total += 1
        elif e < 0:
            total += width
        else:
            total += min(e + 1, width)
    return total


def _max_bits(obj) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in obj.coeffs),
        default=0,
    )


class Tracer:
    """Spans and counters for one engine; install, run queries, uninstall."""

    def __init__(self, eng):
        self.eng = eng
        self.spans: list = []
        self.stack = [-1]
        self.query = -1
        self.counters: Counter = Counter()
        self.max_bits = 0
        self._saved: list = []

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper, classmethod_=False):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)

    def _spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name(args) if callable(name) else name
                spans[index] = (label, start, end, stack[-1], tracer.query)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel_after(self, mults):
        counters = self.counters

        def after(args, kwargs, result):
            if mults is not None:
                counters["chow.conv.fraction_mults"] += mults(args, kwargs, result)
            bits = _max_bits(result)
            if bits > self.max_bits:
                self.max_bits = bits

        return after

    def install(self) -> None:
        chow, cc, sc = self.eng.chow, self.eng.charclass, self.eng.scenarios
        HSeries, GradedClass = chow.HSeries, chow.GradedClass

        def series_mults(args, kwargs, result):
            a, b = args
            return _conv_mults(a.coeffs, b.coeffs) if isinstance(b, HSeries) else 0

        kernels = {
            (HSeries, "__mul__"): ("chow.HSeries.mul", series_mults),
            (HSeries, "__rmul__"): ("chow.HSeries.mul", series_mults),
            (HSeries, "inverse"): (
                "chow.HSeries.inverse", lambda a, k, r: _inverse_mults(a[0].coeffs)),
            (HSeries, "__pow__"): ("chow.HSeries.pow", None),
            (HSeries, "cap"): (
                "chow.HSeries.cap", lambda a, k, r: _conv_mults(a[0].coeffs, a[1].coeffs)),
            (GradedClass, "twist"): (
                "chow.GradedClass.twist",
                lambda a, k, r: _twist_mults(
                    a[0], a[1], a[2] if len(a) > 2 else k.get("relative_dim"))),
        }
        for (owner, attr), (name, mults) in kernels.items():
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._spanned(name, fn, self._kernel_after(mults)))
        self._patch(GradedClass, "dual",
                    self._spanned("chow.GradedClass.dual", GradedClass.__dict__["dual"]))
        for owner in (HSeries, GradedClass):
            for attr in ("__add__", "__sub__", "__neg__"):
                self._patch(owner, attr, self._spanned("chow.addsub", owner.__dict__[attr]))
            self._patch(owner, "to_json", self._spanned("chow.wire", owner.__dict__["to_json"]))
            self._patch(owner, "from_json",
                        self._spanned("chow.wire", owner.__dict__["from_json"].__func__),
                        classmethod_=True)
            self._patch(owner, "__post_init__",
                        self._counted("chow.objects_built", owner.__dict__["__post_init__"]))
        for attr in ("__mul__", "__rmul__"):  # GradedClass scalar multiple
            self._patch(GradedClass, attr,
                        self._spanned("chow.addsub", GradedClass.__dict__[attr]))
        self._patch(GradedClass, "is_zero",
                    self._counted("chow.is_zero.calls", GradedClass.__dict__["is_zero"]))

        for route in ROUTES:
            self._patch(cc, route, self._spanned(f"charclass.{route}", cc.__dict__[route]))
        self._patch(cc.HypersurfaceSpec, "from_json",
                    self._spanned("charclass.HypersurfaceSpec.from_json",
                                  cc.HypersurfaceSpec.__dict__["from_json"].__func__),
                    classmethod_=True)
        self._patch(cc.BundleData, "twist_by",
                    self._spanned("charclass.BundleData.twist_by",
                                  cc.BundleData.__dict__["twist_by"]))

        self._patch(sc, "run_scenario",
                    self._spanned(lambda args: f"scenarios.{args[0]}", sc.__dict__["run_scenario"]))
        self._patch(sc.ScenarioReport, "check",
                    self._counted("scenarios.check.calls", sc.ScenarioReport.__dict__["check"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def run_query(self, query_id, fn, *args):
        """Run one query under a root span named ``query``."""
        self.query = query_id
        return self._spanned("query", fn)(*args)

    def aggregate(self) -> "Aggregate":
        """Fold the held spans into per-name totals and drop them."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        agg = Aggregate()
        for i, (name, start, end, _, _) in enumerate(spans):
            duration = end - start
            self_ns = duration - child[i]
            if self_ns < 0:
                agg.self_violations += 1
            agg.calls[name] += 1
            agg.total_ns[name] += duration
            agg.self_ns[name] += self_ns
        agg.counters.update(self.counters)
        agg.max_bits = self.max_bits
        self.spans.clear()
        self.counters.clear()
        return agg


class Aggregate:
    """Per-name call counts and inclusive/self nanoseconds, summable."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_bits = 0
        self.self_violations = 0

    def add(self, other: "Aggregate") -> None:
        self.calls.update(other.calls)
        self.total_ns.update(other.total_ns)
        self.self_ns.update(other.self_ns)
        self.counters.update(other.counters)
        self.max_bits = max(self.max_bits, other.max_bits)
        self.self_violations += other.self_violations

    def layer_metrics(self, queries: int) -> dict:
        """Per-query layer metrics as ``{name: (value, unit)}``."""
        def ms(counter, name):
            return counter[name] / 1e6 / queries

        out = {}
        for kernel in KERNELS:
            name = f"chow.{kernel}"
            out[f"{name}.calls"] = (self.calls[name] / queries, "count/query")
            out[f"{name}.self_ms"] = (ms(self.self_ns, name), "ms/query")
        out["chow.addsub.calls"] = (self.calls["chow.addsub"] / queries, "count/query")
        out["chow.addsub.self_ms"] = (ms(self.self_ns, "chow.addsub"), "ms/query")
        out["chow.wire.self_ms"] = (ms(self.self_ns, "chow.wire"), "ms/query")
        for name in ("chow.is_zero.calls", "chow.objects_built", "chow.conv.fraction_mults"):
            out[name] = (self.counters[name] / queries, "count/query")
        out["chow.coeff_max_bits"] = (self.max_bits, "bits")
        for fn in ROUTES + CLASS_METHODS:
            name = f"charclass.{fn}"
            out[f"{name}.calls"] = (self.calls[name] / queries, "count/query")
            out[f"{name}.self_ms"] = (ms(self.self_ns, name), "ms/query")
            out[f"{name}.total_ms"] = (ms(self.total_ns, name), "ms/query")
        for scenario in SCENARIOS:
            name = f"scenarios.{scenario}"
            out[f"{name}.total_ms"] = (ms(self.total_ns, name), "ms/query")
        out["scenarios.check.calls"] = (self.counters["scenarios.check.calls"] / queries,
                                        "count/query")
        return out
