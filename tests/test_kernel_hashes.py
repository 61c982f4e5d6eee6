"""The linear-factor kernel's answers at n = 3 to 240, pinned by their hash.

For each n in ``route_data.SIZES`` the sweep's two dense vectors are read
as classes: A, the 14-bit ``dense-narrow`` entries over 1, and B, the
400-bit ``dense-wide`` entries over 7^3, so that the two denominators
differ.  For each lambda in ``LAMBDAS``, ``kernel_hashes.json`` pins the
SHA-256 of the wire output of ``mul_linear`` and ``div_linear`` on A and
on B, and of the combination (a*A + b*B).div_linear(lambda) for each
(a, b) in ``WEIGHTS``, computed by a sum, two scalings and ``div_linear``.
The one-pass kernel must give the combinations' hashes.

It also pins the convolution and the twist on either side of each edge of
the rules that choose their paths (``edge_calls``), on seeded vectors whose
largest entries have a given bit length: ``cap`` and ``*`` at n = 11/12 and
63/64, with zero entries at (n+1)/5 and one past, and with the operands'
bits summed to 256 and 257; ``twist`` at n = 11/12 and 240/241, at |e| = 2n
and 2n+1, with 16- and 17-bit p and q, at lambda = 0 and 1 and with zero
pieces at (n+1)/5 and one past; and ``inverse``, ``**`` with a negative
exponent and ``dual``.  The file is data, refreshed only when answers
change on purpose, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_kernel_hashes.py > tests/kernel_hashes.json
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from route_data import SIZES, draws, wire_sha256

from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, _pair

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


def vector(n, bits, zeros=0) -> list[int]:
    """n + 1 seeded integers of either sign, the largest |entry| of bits bits at
    index n, and zero at zeros indices spread from index 0."""
    rng = random.Random(f"edge-{n}-{bits}-{zeros}")
    out = [rng.choice((-1, 1)) * rng.randint(1, 2**bits - 1) for _ in range(n)]
    out.append(-(2**bits - 1))
    for i in range(zeros):
        out[i * (n + 1) // zeros] = 0
    return out


def edge_calls() -> dict:
    """The call of each pinned row at an edge of a path rule, by its key."""
    calls = {}
    for n, zeros, bits_a, bits_b in [
        (11, 0, 14, 14), (12, 0, 14, 14), (63, 0, 14, 14), (64, 0, 14, 14),
        (24, 5, 14, 14), (24, 6, 14, 14), (64, 13, 14, 14), (64, 14, 14, 14),
        (64, 0, 128, 128), (64, 0, 128, 129), (240, 0, 200, 56), (240, 0, 200, 57),
    ]:
        cls = GradedClass._reduce(n, vector(n, bits_a, zeros), 1)
        series = HSeries._reduce(n, vector(n, bits_b), 1)
        key = f"{n} {zeros} {bits_a}+{bits_b}"
        calls[f"cap {key}"] = lambda s=series, c=cls: s.cap(c)
        calls[f"mul {key}"] = lambda s=series, t=HSeries._reduce(n, cls._nums, 1): t * s
    twists = [(n, 0, lam, n - 1) for n in (11, 12, 240, 241) for lam in (1, Fraction(-5, 3))]
    twists += [(24, 0, Fraction(-2, 3), 24 - e) for e in (48, 49, -48, -49)]
    twists += [(24, 0, lam, 23) for lam in (Fraction(2**16 - 1), Fraction(2**16 + 1),
                                           Fraction(1, 2**16 - 1), Fraction(1, 2**16 + 1))]
    twists += [(24, zeros, lam, 23) for zeros in (5, 6) for lam in (0, 1, Fraction(-5, 3))]
    for n, zeros, lam, m in twists:
        cls = GradedClass._reduce(n, vector(n, 14, zeros), 1)
        calls[f"twist {n} {zeros} {lam} m={m}"] = lambda c=cls, x=lam, m=m: c.twist(
            LineBundleOnPn(x), m)
    for n in (3, 24, 120):
        series, cls = HSeries._reduce(n, vector(n, 14), 1), GradedClass._reduce(n, vector(n, 14), 1)
        calls[f"inverse {n}"] = series.inverse
        calls[f"pow -3 {n}"] = lambda s=series: s**-3
        calls[f"dual {n}"] = cls.dual
        calls[f"dual m={n + 1} {n}"] = lambda c=cls, m=n + 1: c.dual(m)
    return calls


def kernel_hashes() -> dict:
    got = {key: wire_sha256(call()) for n in SIZES for key, call in kernel_calls(n).items()}
    return {**got, **{key: wire_sha256(call()) for key, call in edge_calls().items()}}


def test_every_kernel_answer_is_pinned():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = kernel_hashes()
    assert got.keys() == pinned.keys()
    assert len(pinned) == len(SIZES) * len(LAMBDAS) * (4 + len(WEIGHTS)) + 58 == 226
    assert [key for key, sha in got.items() if pinned[key] != sha] == []


def test_one_pass_kernel_gives_the_pinned_sums():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = {}
    for n in SIZES:
        a_cls, b_cls = operands(n)
        for lam in LAMBDAS:
            for a, b in WEIGHTS:
                got[f"sum {a},{b} {lam} {n}"] = wire_sha256(
                    a_cls._div_linear_sum(_pair(a), b_cls, _pair(b), _pair(lam)))
    assert len(got) == 56
    assert [key for key, sha in got.items() if pinned[key] != sha] == []


if __name__ == "__main__":
    print(json.dumps(kernel_hashes(), indent=1, sort_keys=True))
