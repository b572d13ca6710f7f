"""polobstruct benchmark: one command, two seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 55 --trace 0

Untraced, it starts five fresh measuring processes (``perfbench/worker.py``)
one after another, each for an equal share of what is left of
``--seconds``; each makes a cold pass and then warm passes. Traced, it starts one, which makes one warm
pass. Every time is scaled by the speed probe of ``calibrate.py`` run
around it. It checks every answer against the
paper's closed forms and prints as its last stdout line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON record of provenance, stdout digests and sample
counts; the same record is written to ``.perfbench_out/``.

Exit code 2 without a result when the checkout has no ``src/polobstruct``,
1 when a measuring process dies or a traced target is not found.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

PROCESSES = 5  # fresh measuring processes per untraced run
PROCESS_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"
TAIL_PERCENTILE = 90


def _percentile(xs, pct):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, -(-len(xs) * pct // 100) - 1)]


def _per_command(op_times, ops_per_pass, stat):
    """``stat`` of each command's times across the run's passes."""
    return [stat(op_times[i::ops_per_pass]) for i in range(ops_per_pass)]


def _src_sha256(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "polobstruct").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_rev(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(root):
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "sympy": _version("sympy"), "nproc": os.cpu_count(),
            "git_rev": _git_rev(root), "src_sha256": _src_sha256(root)}


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _worker(root, env, args, seconds, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--seconds", str(seconds)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {' '.join(cmd)} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "polobstruct" / "__init__.py").is_file():
        print(f"error: {root} has no src/polobstruct to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    (root / OUT_DIR).mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("POLOBSTRUCT_SEED", None)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **_provenance(root)}
    n = 1 if args.trace else PROCESSES
    results = []
    start = time.monotonic()
    for k in range(n):
        # an equal share of the time left; a traced run makes one warm pass
        share = 0 if args.trace else (args.seconds - (time.monotonic() - start)) / (n - k)
        results.append(_worker(root, env, args, share, deadline))

    passes = [p for r in results
              for p in [r["cold_pass"], *r["warm_passes"], r.get("traced_pass")] if p]
    digests = sorted({p["stdout_sha256"] for p in passes})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    m = results[0]["ops_per_pass"]
    record.update(stdout_sha256=digests[0] if len(digests) == 1 else digests,
                  processes=n, ops_per_pass=m, attempted=attempted, failed=failed,
                  error_rate=failed / attempted,
                  failures=[f for r in results for f in r["failures"]][:5])
    if args.trace:
        res = results[0]
        if res["missing_targets"]:
            print(f"error: traced targets not found: {res['missing_targets']}", file=sys.stderr)
            return 1
        metrics = res["layers"]
    else:
        # A shared machine runs the same command up to 1.7 times slower in
        # phases of seconds to minutes, CPU time included. So every time is
        # scaled by the speed probe run around it, and each command is
        # represented by the median of its scaled times over the warm passes,
        # or over the cold passes, one per process.
        warm, cold = slice(m, None), slice(0, m)

        def per_command(key, probe_key, passes):
            xs = [x for r in results for x in calibrate.scale(r[key][passes], r[probe_key][passes])]
            return _per_command(xs, m, statistics.median)

        per_op = per_command("op_s", "probe_s", warm)
        setups = calibrate.scale([r["setup_s"] for r in results], [r["setup_probe_s"] for r in results])
        metrics = {
            "wall_s": _metric(sum(per_op), "s"),
            "cold_wall_s": _metric(sum(per_command("op_s", "probe_s", cold)), "s"),
            "cpu_s": _metric(sum(per_command("op_cpu_s", "probe_cpu_s", warm)), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in results), "MB"),
            "op_p50_s": _metric(_percentile(per_op, 50), "s"),
            "op_tail_s": _metric(_percentile(per_op, TAIL_PERCENTILE), "s"),
        }
        raw = [x for r in results for x in r["op_s"][warm]]
        record.update(
            setup_samples=setups, setup_unscaled_s=[r["setup_s"] for r in results],
            op_tail_percentile=TAIL_PERCENTILE, op_samples=m,
            warm_passes=len(raw) // m,
            unscaled_wall_s=sum(_per_command(raw, m, statistics.median)),
            probe_s=statistics.median(x for r in results for x in r["probe_s"]))
    record["metrics"] = metrics

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (root / OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in record if k != "metrics"}))
    # a pass whose stdout differs from another's at the same seed is wrong
    print(json.dumps({"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
