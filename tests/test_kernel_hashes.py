"""The linear-factor kernel's answers at n = 3 to 240, pinned by their hash.

For each n in ``route_data.SIZES`` the sweep's two dense vectors are read
as classes: A, the 14-bit ``dense-narrow`` entries over 1, and B, the
400-bit ``dense-wide`` entries over 7^3, so that the two denominators
differ.  For each lambda in ``LAMBDAS``, ``kernel_hashes.json`` pins the
SHA-256 of the wire output of ``mul_linear`` and ``div_linear`` on A and
on B, and of the combination (a*A + b*B).div_linear(lambda) for each
(a, b) in ``WEIGHTS``, computed by a sum, two scalings and ``div_linear``.
The one-pass kernel must give the combinations' hashes.  The file is
data, refreshed only when answers change on purpose, from the root of a
checkout:

    PYTHONPATH=src python3 tests/test_kernel_hashes.py > tests/kernel_hashes.json
"""

import json
from fractions import Fraction
from pathlib import Path

from route_data import SIZES, draws, wire_sha256

from csmcalc.chow import GradedClass

LAMBDAS = (Fraction(4), Fraction(24, 7), Fraction(-5, 3), Fraction(0))
WEIGHTS = ((Fraction(-3, 5), Fraction(3, 5)), (Fraction(1, 3), Fraction(2, 3)))
PINS = Path(__file__).with_name("kernel_hashes.json")


def operands(n) -> tuple[GradedClass, GradedClass]:
    data = draws(n)
    return (GradedClass._reduce(n, data["dense-narrow"], 1),
            GradedClass._reduce(n, data["dense-wide"], 7**3))


def kernel_calls(n) -> dict:
    """"op lambda n": the call, for every pinned kernel result at n."""
    a_cls, b_cls = operands(n)
    calls = {}
    for lam in LAMBDAS:
        for name, cls in (("A", a_cls), ("B", b_cls)):
            calls[f"mul_linear {name} {lam} {n}"] = lambda c=cls, x=lam: c.mul_linear(1, x)
            calls[f"div_linear {name} {lam} {n}"] = lambda c=cls, x=lam: c.div_linear(x)
        for a, b in WEIGHTS:
            calls[f"sum {a},{b} {lam} {n}"] = (
                lambda a=a, b=b, x=lam: (a_cls * a + b_cls * b).div_linear(x))
    return calls


def kernel_hashes() -> dict:
    return {key: wire_sha256(call()) for n in SIZES for key, call in kernel_calls(n).items()}


def test_every_kernel_answer_is_pinned():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = kernel_hashes()
    assert got.keys() == pinned.keys()
    assert len(pinned) == len(SIZES) * len(LAMBDAS) * (4 + len(WEIGHTS)) == 168
    assert [key for key, sha in got.items() if pinned[key] != sha] == []


def test_one_pass_kernel_gives_the_pinned_sums():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = {}
    for n in SIZES:
        a_cls, b_cls = operands(n)
        for lam in LAMBDAS:
            for a, b in WEIGHTS:
                got[f"sum {a},{b} {lam} {n}"] = wire_sha256(a_cls._div_linear_sum(a, b_cls, b, lam))
    assert len(got) == 56
    assert [key for key, sha in got.items() if pinned[key] != sha] == []


if __name__ == "__main__":
    print(json.dumps(kernel_hashes(), indent=1, sort_keys=True))
