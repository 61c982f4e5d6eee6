"""What the benchmark's outside-in tracer (``bench/tracer.py``) needs of
the engine: every method it wraps is bound in its own class body,
``GradedClass.twist`` reaches no other traced kernel, since the tracer
counts twist's products from its arguments alone, ``BundleData.twist_by``
reaches the series only through ``twist``, every object built, by the
constructor or by a kernel, passes the counted ``__post_init__`` once,
``uninstall`` leaves every class as it was,
and the linear-factor kernel (``mul_linear``, ``div_linear``) reaches no
traced kernel either, so that its work stays out of the traced kernels'
metrics."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from csmcalc import charclass, chow, scenarios
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    if not TRACER.is_file():
        pytest.skip("no bench/tracer.py in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(SimpleNamespace(chow=chow, charclass=charclass, scenarios=scenarios))


def test_every_traced_method_is_in_its_own_class_dict():
    tracer = _tracer()
    twist = GradedClass.__dict__["twist"]
    try:
        tracer.install()  # reads owner.__dict__[attr] for every wrapped method
        assert GradedClass.__dict__["twist"] is not twist
    except KeyError as exc:
        pytest.fail(f"the tracer wraps {exc}, which is not in its class __dict__")
    finally:
        tracer.uninstall()
    assert GradedClass.__dict__["twist"] is twist


def test_twist_calls_no_series_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("twist must not call another kernel")

    for attr in ("cap", "__mul__", "__rmul__"):
        monkeypatch.setattr(HSeries, attr, forbidden)
    monkeypatch.setattr(LineBundleOnPn, "chern", forbidden)
    got = GradedClass.from_coeffs(3, [0, -4, -7, -10]).twist(LineBundleOnPn(F(4)), 3)
    assert got == GradedClass.from_coeffs(3, [0, -4, 9, -18])


def test_twist_by_calls_no_series_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("twist_by must reach the series only through twist")

    for attr in ("cap", "__mul__", "__rmul__"):
        monkeypatch.setattr(HSeries, attr, forbidden)
    monkeypatch.setattr(LineBundleOnPn, "chern", forbidden)
    normal = charclass.BundleData(2, HSeries(3, (F(1), F(3), F(5), F(0))))
    got = normal.twist_by(LineBundleOnPn(F(2)))
    # (1 + 2H)^2 + 3H(1 + 2H) + 5H^2
    assert got.total_chern == HSeries(3, (F(1), F(7), F(15), F(0)))


def test_every_object_is_counted():
    tracer = _tracer()
    tracer.install()
    try:
        GradedClass(2, (F(1), F(0), F(3)))  # plain Fractions: no per-entry coercion
        HSeries(1, (1, "1/2"))
        normal = charclass.BundleData.line(3, F(4)).twist_by(LineBundleOnPn(F(-4)))
    finally:
        tracer.uninstall()
    # line builds one series; twist_by builds the low part, the twisted
    # class and the result series
    assert tracer.counters["chow.objects_built"] == 2 + 1 + 3
    assert normal.total_chern == HSeries.one(3)


def test_each_twin_built_through_init_is_counted_once():
    tracer = _tracer()
    tracer.install()
    try:
        for cls in (HSeries, GradedClass):
            before = tracer.counters["chow.objects_built"]
            cls(1, (F(1), F(2)))
            cls(coeffs=(1, "1/2"), ambient_dim=1)
            assert tracer.counters["chow.objects_built"] == before + 2
    finally:
        tracer.uninstall()


def test_each_kernel_result_is_counted_once():
    a = GradedClass(3, (F(0), F(-4, 3), F(7), F(1, 6)))
    s = HSeries(3, (F(1), F(2, 5), F(0), F(-3)))
    bundle, normal = LineBundleOnPn(F(-5, 3)), charclass.BundleData(1, s)
    kernels = {
        "add": lambda: a + a, "sub": lambda: a - a, "neg": lambda: -a, "scale": lambda: a * 3,
        "series_add": lambda: s + s, "series_sub": lambda: s - s, "series_neg": lambda: -s,
        "mul": lambda: s * s, "series_scale": lambda: s * F(1, 2), "cap": lambda: s.cap(a),
        "dual": lambda: a.dual(), "twist": lambda: a.twist(bundle), "chern": lambda: bundle.chern(3),
        "mul_linear": lambda: a.mul_linear(1, F(2, 3)), "div_linear": lambda: a.div_linear(F(2, 3)),
        "bundle_dual": lambda: normal.dual(),
    }
    tracer = _tracer()
    tracer.install()
    try:
        for name, kernel in kernels.items():
            before = tracer.counters["chow.objects_built"]
            kernel()
            assert tracer.counters["chow.objects_built"] == before + 1, name
    finally:
        tracer.uninstall()


def test_install_and_uninstall_restore_every_class_dict():
    classes = (HSeries, GradedClass, charclass.HypersurfaceSpec, charclass.BundleData,
               scenarios.ScenarioReport)
    before = [dict(vars(cls)) for cls in classes]
    tracer = _tracer()
    tracer.install()
    tracer.uninstall()
    assert [dict(vars(cls)) for cls in classes] == before


def test_linear_factor_kernel_calls_no_traced_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the linear-factor kernel must not call a traced kernel")

    for attr in ("cap", "__mul__", "__rmul__"):
        monkeypatch.setattr(HSeries, attr, forbidden)
    monkeypatch.setattr(LineBundleOnPn, "chern", forbidden)
    monkeypatch.setattr(GradedClass, "twist", forbidden)
    cls = GradedClass.from_coeffs(3, [0, -4, -7, F(-10, 3)])
    product = GradedClass.from_coeffs(3, [0, -2, F(-39, 2), F(-89, 3)])
    assert cls.mul_linear(F(1, 2), F(4)) == product
    assert cls.div_linear(F(4)) == GradedClass.from_coeffs(3, [0, -4, 9, F(-118, 3)])


def test_two_class_linear_factor_kernel_calls_no_traced_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the linear-factor kernel must not call a traced kernel")

    a = GradedClass.from_coeffs(3, [0, -4, -7, F(-10, 3)])
    b = GradedClass.from_coeffs(3, [F(1, 6), 0, 5, 2])
    want = (a * F(2, 5) + b * F(-7)).div_linear(F(4, 3))
    one_class = (a * F(2, 5)).div_linear(F(4, 3))
    for attr in ("cap", "__mul__", "__rmul__"):
        monkeypatch.setattr(HSeries, attr, forbidden)
    for attr in ("twist", "dual", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(GradedClass, attr, forbidden)
    monkeypatch.setattr(LineBundleOnPn, "chern", forbidden)
    assert a._div_linear_sum((2, 5), b, (-7, 1), (4, 3)) == want
    assert a._div_linear_sum((2, 5), b, (0, 1), (4, 3)) == one_class


def test_two_class_linear_factor_kernel_result_is_counted_once():
    a = GradedClass(3, (F(0), F(-4, 3), F(7), F(1, 6)))
    b = GradedClass(3, (F(2, 9), F(0), F(-1), F(5)))
    tracer = _tracer()
    tracer.install()
    try:
        for weights in ((F(-3, 5), F(3, 5)), (F(2), 0), (0, F(1, 7)), (0, 0)):
            before = tracer.counters["chow.objects_built"]
            wa, wb = map(chow._pair, weights)
            a._div_linear_sum(wa, b, wb, (-5, 3))
            assert tracer.counters["chow.objects_built"] == before + 1, weights
    finally:
        tracer.uninstall()
