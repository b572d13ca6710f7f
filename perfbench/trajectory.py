"""Record a trajectory point: ten seeded runs per workload, one traced run,
a determinism re-run, and the headline cases of ``headline.py``.

    python3 perfbench/trajectory.py --label <name>

Runs ``run.py`` from the checkout root for seeds 1 to 10 on each workload,
then re-runs seed 1 and requires the same stdout digest, then makes one
traced run. For every end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. Writes ``perfbench/trajectory/<label>.json``
and exits 1 if any run failed, any digest differed or any spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    point = {"label": args.label, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for workload in names:
        values, digests, failed = {}, {}, 0
        record = None
        for seed in range(1, RUNS + 1):
            record, result = _run(workload, seed, seconds, 0)
            failed += result["failed"]
            digests[seed] = record["stdout_sha256"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        again, result = _run(workload, 1, seconds, 0)
        failed += result["failed"]
        same_digest = again["stdout_sha256"] == digests[1]
        _, traced = _run(workload, 1, seconds, 1)
        failed += traced["failed"]
        summary = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "unit": result["metrics"][name]["unit"],
                             "values": xs}
            if spread > bounds[name]:
                ok = False
            print(f"{workload} {name}: median {median:.4g} spread {spread:.3f} "
                  f"bound {bounds[name]}", flush=True)
        ok = ok and failed == 0 and same_digest
        point["workloads"][workload] = {
            "end_to_end": summary, "failed": failed,
            "stdout_sha256_seed1_repeats": same_digest,
            "provenance": {k: record[k] for k in
                           ("python", "numpy", "sympy", "nproc", "git_rev", "src_sha256")},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    headline = subprocess.run([sys.executable, str(HERE / "headline.py")],
                              capture_output=True, text=True, timeout=600)
    ok = ok and headline.returncode == 0
    point["headline"] = json.loads(headline.stdout) if headline.returncode == 0 else None
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}; {'ok' if ok else 'NOT STEADY OR FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
