"""Self-test of the tracer, run before every traced run.

A synthetic two-module package with a nested call tree and a fake clock
checks, exactly: binding by identity (a function copied into a second
module by ``from ... import`` is still traced), methods and classmethods
wrapped on their class, call counts, self-time arithmetic, the ``after``
hook, missing targets, and restoring every binding.

``python3 perfbench/selftest.py`` also checks that ``BENCHMARK.json`` lists
exactly the per-layer metrics the traced run reports.
"""

import json
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402

PKG = "_perfbench_selftest_pkg"

SOURCE_A = """
def leaf():
    tick(1)

def mid():
    tick(2)
    leaf()
    leaf()
    tick(3)

class K:
    def meth(self):
        tick(4)
        mid()

    @classmethod
    def make(cls):
        tick(8)
        cls().meth()
"""

SOURCE_B = """
from {pkg}.a import K, mid

def top():
    tick(16)
    K.make()
    mid()
"""


class _Check(Exception):
    pass


def _expect(got, want, what):
    if got != want:
        raise _Check(f"tracer self-test: {what}: got {got!r}, want {want!r}")


def run():
    now = [0.0]

    def tick(units):
        now[0] += units

    a = types.ModuleType(f"{PKG}.a")
    b = types.ModuleType(f"{PKG}.b")
    added = {PKG: types.ModuleType(PKG), a.__name__: a, b.__name__: b}
    sys.modules.update(added)
    try:
        a.tick = b.tick = tick
        exec(SOURCE_A, vars(a))
        exec(SOURCE_B.format(pkg=PKG), vars(b))
        original_mid, original_make = a.mid, vars(a.K)["make"]
        tracer = Tracer(clock=lambda: now[0])
        seen = []
        targets = [
            ("a.leaf", "a", "leaf", None),
            ("a.mid", "a", "mid", lambda args, result: seen.append(result)),
            ("a.K.meth", "a", "K.meth", None),
            ("a.K.make", "a", "K.make", None),
            ("b.top", "b", "top", None),
            ("a.gone", "a", "gone", None),
        ]
        restore, missing = install(tracer, PKG, targets)
        _expect(b.mid is a.mid and b.mid is not original_mid, True, "copy of mid wrapped")
        b.top()
        restore()
        _expect((a.mid, b.mid), (original_mid, original_mid), "bindings restored")
        _expect(vars(a.K)["make"], original_make, "classmethod restored")
        _expect(missing, ["a.gone"], "missing targets")
        _expect(seen, [None, None], "after hook runs once per call")
        # top = 16 + make (8 + meth (4 + mid)) + mid; mid = 2 + leaf + leaf + 3
        _expect(tracer.aggregate(), {
            "a.leaf": (4, 4.0),
            "a.mid": (2, 10.0),
            "a.K.meth": (1, 4.0),
            "a.K.make": (1, 8.0),
            "b.top": (1, 16.0),
        }, "calls and self time")
        _expect(now[0], 42.0, "total ticks")
    finally:
        for name in added:
            sys.modules.pop(name, None)


def check_benchmark_json(path):
    import layers

    with open(path) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    _expect(listed, layers.metric_units(), "per_layer metrics in BENCHMARK.json")


if __name__ == "__main__":
    try:
        run()
        check_benchmark_json(os.path.join(os.getcwd(), "BENCHMARK.json"))
    except _Check as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
    print("perfbench self-test: ok")
