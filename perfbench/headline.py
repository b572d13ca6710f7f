"""Time the ROADMAP's headline cases once each, for the trajectory.

    python3 perfbench/headline.py

Runs ``verify -p 101`` and ``sweep --pmax 61 --jobs 1`` through
``cli.main`` in this process, checks both answers against the same closed
forms as the benchmark's workloads, and prints one JSON object with the
wall and CPU seconds of each. Together they take over a minute on a
two-CPU machine, longer than a benchmark run, so ``trajectory.py`` runs
this script and stores its figures next to the benchmark's.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from polobstruct import cli  # noqa: E402

import workloads  # noqa: E402

CASES = {
    "verify -p 101": (["verify", "-p", "101", "--seed", str(cli.DEFAULT_SEED)],
                      workloads.check_verify(101, cli.DEFAULT_SEED)),
    "sweep --pmax 61": (["sweep", "--pmax", "61", "--jobs", "1"], workloads.check_sweep(61)),
}


def main():
    out = {}
    for name, (argv, check) in CASES.items():
        buf = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        out[name] = {"wall_s": time.perf_counter() - t0,
                     "cpu_s": time.process_time() - c0}
        wrong = check(rc, buf.getvalue())
        if wrong:
            print(f"error: {name}: {wrong}", file=sys.stderr)
            return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
