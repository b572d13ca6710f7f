"""The benchmark's workloads: seeded inputs, the CLI commands of one pass,
and the closed-form answer each command must print.

Every workload is a closed loop with one client in one process: the next
command starts when the previous one has returned. A pass is a fixed list
of commands; a run repeats the same pass, so every pass of a run must
print the same bytes.

Sizes are chosen so that one pass takes one to five seconds at the parent
of the benchmark, so that a run repeats it at least ten times in five
fresh processes and reports each command's median time, scaled by the
speed probe of ``calibrate.py``.

- verify-large: ``verify -p 43``. ``verify -p 101`` takes about 35 s, longer
  than a run. p = 43 takes the same routes as p = 101: the structural
  commutant, the Fraction Rosati solve, and a composition series of length
  p - 1 over F_p.
- model-queries: models for p in {13, 19} are written once in set-up, and
  each query reloads and re-validates one of them. The p = 29 model is left
  out because each of its queries costs about 1.7 s, which would make a
  pass as long as half a run.

There is no sweep workload: ``sweep --pmax 23`` was measured and was as
unsteady as the others on a shared machine, and the run budget fits two
workloads of 55 s runs but not three. ``headline.py`` times ``sweep --pmax 61`` once per
trajectory point instead, with the same closed-form check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

VERIFY_P = 43
MODEL_PRIMES = (13, 19)
ATTAINABLE_CLASSES = range(-1, 6)

WORKLOADS = ("verify-large", "model-queries")


@dataclass(frozen=True)
class Op:
    """One CLI command and the check its exit code and stdout must pass.

    ``check(rc, stdout)`` returns None when the answer is right and a
    one-line reason otherwise.
    """

    argv: tuple
    check: Callable[[int, str], Optional[str]]


def _is_odd_prime(n):
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def check_verify(p, seed):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        rep = json.loads(out)
        if rep.get("p") != p or rep.get("seed") != seed:
            return "report is for another p or seed"
        if rep.get("ok") is not True:
            return "report is not ok"
        checks = rep.get("checks") or []
        failed = [c.get("name") for c in checks if c.get("passed") is not True]
        if not checks or failed:
            return f"checks failed: {failed}" if failed else "no checks ran"
        return None

    return check


def check_sweep(pmax):
    primes = [p for p in range(3, pmax + 1) if _is_odd_prime(p)]

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or len(rows[0]) != 6:
            return "missing six-column header"
        body = [tuple(int(x) for x in r) for r in rows[1:]]
        # (p, det b, deg b, centralizer rank, filtration length, parity)
        want = [(p, p, p * p, p - 1, p, 1) for p in primes]
        if body != want:
            bad = next((r for r, w in zip(body, want) if r != w), None)
            return f"rows differ from (p, p, p^2, p-1, p, 1): first bad {bad}, {len(body)} rows"
        return None

    return check


def _check_attainable(k):
    reason = "not_effective" if k < 0 else ("ok" if k % 2 else "b2_image_not_in_s_c")
    want = f"attainable: {'yes' if reason == 'ok' else 'no'} ({reason})"

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        return None if out.strip() == want else f"got {out.strip()!r}, want {want!r}"

    return check


def _check_bgroup(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    g = json.loads(out)
    if (g.get("b1"), g.get("b2"), g.get("i_c_parity")) != ("Z/2", "Z/2", 1):
        return f"groups {g.get('b1')}, {g.get('b2')}, parity {g.get('i_c_parity')}"
    return None


def _check_tp(positive):
    want = "totally positive" if positive else "not totally positive"

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        return None if out.strip() == want else f"got {out.strip()!r}, want {want!r}"

    return check


def _check_norm(rc, out):
    # N(x conj x) = N(x)^2, and N(-a) = N(a) because the degree p - 1 is even
    if rc != 0:
        return f"exit code {rc}"
    text = out.strip()
    if not text.isdigit():
        return f"norm {text!r} is not a positive integer"
    v = int(text)
    return None if v > 0 and math.isqrt(v) ** 2 == v else f"norm {v} is not a positive square"


def _model_queries(seed, workdir):
    from polobstruct import CycElem, complex_conj, format_element, twist_model

    rng = random.Random(seed)
    ops = []
    for p in MODEL_PRIMES:
        path = os.path.join(workdir, f"model-{p}.json")
        with open(path, "w") as fh:
            fh.write(twist_model(p).to_json())
        ops += [Op(("attainable", "--model", path, "--class", str(k)), _check_attainable(k))
                for k in ATTAINABLE_CLASSES]
        ops.append(Op(("bgroup", "--model", path), _check_bgroup))
        x = CycElem(p, (0,) * (p - 1))
        while x.is_zero():
            x = CycElem(p, tuple(rng.randint(-3, 3) for _ in range(p - 1)))
        a = x * complex_conj(x)
        for elem, positive in ((a, True), (-a, False)):
            text = format_element(elem)
            ops.append(Op(("tp", text), _check_tp(positive)))
            ops.append(Op(("norm", text), _check_norm))
    rng.shuffle(ops)
    return ops


def build(workload, seed, workdir):
    """The ops of one pass of ``workload``; writes any input files to workdir."""
    if workload == "verify-large":
        return [Op(("verify", "-p", str(VERIFY_P), "--seed", str(seed)),
                   check_verify(VERIFY_P, seed))]
    if workload == "model-queries":
        return _model_queries(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
