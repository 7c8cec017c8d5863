#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py [--workloads serve,sweep,build]

1. With one design's accepted count altered (--alter-accepted), the
   lossless-ET check must fail and the result must say correct=false.
2. With a seed other than the default, every workload must pass its
   checks and print exactly the metric names, with the units, that
   BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
   --trace 1).
3. The digest of simulated results must be the same with
   ANSMET_THREADS=1 and ANSMET_THREADS=4.

Exits 0 when every case passes. Takes a few minutes: each case is a
real benchmark run with --seconds 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
OTHER_SEED = 987654321


def run(workload, seed, trace="0", extra=(), threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["ANSMET_THREADS"] = str(threads)
    res = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", trace, *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {res.returncode}\n{res.stderr}")
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")),
                  None)
    return json.loads(lines[-1]), digest, res.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="serve,sweep,build")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def case(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}",
              flush=True)
        if not ok:
            failures.append(name)

    res, _, err = run("serve", 1, extra=["--alter-accepted"])
    case("altered accepted count is reported as a failure",
         res["correct"] is False and res["failed"] >= 1
         and "accepted matches the traces" in err,
         json.dumps({k: res[k] for k in ("correct", "attempted", "failed")}))

    for wl in args.workloads.split(","):
        for trace in ("0", "1"):
            res, _, err = run(wl, OTHER_SEED, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            case(f"{wl} --trace {trace} seed {OTHER_SEED}: checks pass",
                 res["correct"] is True and res["failed"] == 0
                 and res["attempted"] >= 1, err[-2000:])
            case(f"{wl} --trace {trace} seed {OTHER_SEED}: every metric name "
                 f"and unit printed", got == expected[trace],
                 f"missing {sorted(set(expected[trace]) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected[trace]))}")

    _, d1, _ = run("serve", 1, threads=1)
    _, d4, _ = run("serve", 1, threads=4)
    case("serve digest identical at ANSMET_THREADS=1 and 4",
         d1 is not None and d1 == d4, f"{d1} vs {d4}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
