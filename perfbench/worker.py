"""One measuring process of the benchmark; ``run.py`` starts it.

It imports polobstruct from ``<root>/src`` before anything else but the
speed probe, so that ``setup_s`` times a fresh interpreter's import plus
the workload's input generation. Then it runs the workload's pass through ``cli.main(argv)`` with stdout captured.
It makes a cold pass, which pays what a fresh ``polobstruct`` process
pays on its first command, such as lazy imports, then warm passes as
long as another one would still end within ``--seconds`` of its start, at
least one. With
``--trace 1`` one more pass has every layer target wrapped, for the
per-layer metrics and the tracing overhead.

The speed probe of ``calibrate.py`` runs before and after set-up, before
the first command of a pass and after every command, so that ``run.py`` can scale
each time by the machine's speed around it.

It prints one JSON object of raw measurements as its last stdout line.
"""

import os
import sys
import time

import calibrate

# the probe's own import of fractions, which polobstruct imports too, is
# not part of set-up
calibrate.warm_up()
SETUP_PROBE_BEFORE = calibrate.probe()
_T0 = time.perf_counter()
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
import polobstruct  # noqa: E402  (timed as part of set-up)
from polobstruct import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import layers  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from run import OUT_DIR  # noqa: E402
from tracer import Tracer, install  # noqa: E402

MAX_REPORTED_FAILURES = 5


def _package_caches():
    """Every lru_cache in polobstruct, cleared before each command. Other
    state a command leaves behind in the process, such as a lazy import,
    is paid only by the cold pass."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "polobstruct" or name.startswith("polobstruct.")):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


class Runner:
    """Runs passes and keeps every op time, failure and stdout digest."""

    def __init__(self, ops):
        self.ops = ops
        self.caches = _package_caches()
        self.reference = None  # stdout of each op in the first pass
        self.op_s = []
        self.op_cpu_s = []
        # probe wall and CPU time around each op: the mean of the probes
        # just before and just after it
        self.probe_s = []
        self.probe_cpu_s = []
        self.attempted = 0
        self.failures = []

    def _fail(self, i, reason):
        self.failures.append(f"op {i} {' '.join(self.ops[i].argv)}: {reason}")

    def run_pass(self):
        wall = 0.0
        outs = []
        first = len(self.op_s)
        before = calibrate.probe()
        for i, op in enumerate(self.ops):
            for cache in self.caches:
                cache.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            rc, crash = None, None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashing command is a failed op; keep going
                crash = traceback.format_exc(limit=3).strip().splitlines()[-1]
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
            after = calibrate.probe()
            wall += dt
            self.op_s.append(dt)
            self.op_cpu_s.append(cpu)
            self.probe_s.append((before[0] + after[0]) / 2)
            self.probe_cpu_s.append((before[1] + after[1]) / 2)
            before = after
            self.attempted += 1
            text = out.getvalue()
            outs.append(text)
            if crash is not None:
                self._fail(i, f"raised {crash}")
                continue
            try:
                reason = op.check(rc, text)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                reason = f"unparsable output ({exc!r})"
            if reason is None and self.reference is not None and text != self.reference[i]:
                reason = "stdout differs from the first pass at the same seed"
            if reason is not None:
                stderr = err.getvalue().strip().splitlines()
                self._fail(i, reason + (f"; stderr: {stderr[-1]}" if stderr else ""))
        if self.reference is None:
            self.reference = outs
        digest = hashlib.sha256("\0".join(outs).encode()).hexdigest()
        scaled = sum(calibrate.scale(self.op_s[first:], self.probe_s[first:]))
        return {"wall_s": wall, "scaled_wall_s": scaled, "stdout_sha256": digest}


def _traced_pass(runner, workload, seed):
    tracer = Tracer()

    def count_entries(args, _result):
        tracer.count(layers.ENTRIES, args[0].nrows * args[0].ncols)

    targets = [(f"{module}.{name}", module, path,
                count_entries if path == "Matrix.__init__" else None)
               for module, name, path in layers.TARGETS]
    restore, missing = install(tracer, "polobstruct", targets)
    try:
        gc.collect()
        traced = runner.run_pass()
    finally:
        restore()
    tracer.save(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.npz"))
    return traced, tracer, missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="make warm passes that end within this long after start")
    args = ap.parse_args(argv)

    if not os.path.abspath(polobstruct.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: polobstruct was imported from {polobstruct.__file__}, "
              f"not from {ROOT}/src", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = IMPORT_S + time.perf_counter() - t0
        setup_probe = calibrate.probe()
        if args.trace:
            selftest.run()

        runner = Runner(ops)
        gc.collect()
        cold = runner.run_pass()
        warm = []
        while True:
            t0 = time.perf_counter()
            gc.collect()
            warm.append(runner.run_pass())
            now = time.perf_counter()
            # stop when a pass as long as this one would end past --seconds
            if now + (now - t0) - _T0 > args.seconds:
                break
        # the cold pass's samples, then the warm passes'
        result = {"setup_s": setup_s, "setup_probe_s": (SETUP_PROBE_BEFORE[0] + setup_probe[0]) / 2,
                  "ops_per_pass": len(ops), "cold_pass": cold, "warm_passes": warm,
                  "op_s": runner.op_s[:], "op_cpu_s": runner.op_cpu_s[:],
                  "probe_s": runner.probe_s[:], "probe_cpu_s": runner.probe_cpu_s[:]}
        if args.trace:
            traced, tracer, missing = _traced_pass(runner, args.workload, args.seed)
            result["traced_pass"] = traced
            result["missing_targets"] = missing
            result["layers"] = layers.layer_metrics(
                tracer.aggregate(), tracer.counters, len(ops),
                cold["scaled_wall_s"], warm[0]["scaled_wall_s"], traced["scaled_wall_s"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"] = runner.attempted
        result["failures"] = runner.failures[:MAX_REPORTED_FAILURES]
        result["failed"] = len(runner.failures)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
