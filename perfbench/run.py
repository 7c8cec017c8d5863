#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload sweep|serve|build --seed N \
        --seconds S --trace 0|1

Builds the library and the benchmark binary from source on first use
(under $CARGO_TARGET_DIR, default .bench_build, in the repository root),
then runs one workload with ANSMET_THREADS=4 unless the caller set it.
The binary's standard output is passed through; its last line is the
JSON result. A traced run also writes its spans, as Chrome trace-event
JSON, to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build; cmake's output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j4",
         "--target", "ansmet_perfbench"],
        check=True, stdout=sys.stderr)
    return build_dir / "ansmet_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "serve", "build"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--alter-accepted", action="store_true",
                    help="self-test hook: corrupt one accepted count")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        return 3

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(out_root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 4

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        trace_dir = out_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.alter_accepted:
        cmd.append("--alter-accepted")

    env = dict(os.environ)
    env.setdefault("ANSMET_THREADS", "4")
    # The library's own trace and audit switches would add work the
    # benchmark does not measure.
    for var in ("ANSMET_TRACE", "ANSMET_AUDIT"):
        env.pop(var, None)
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 5
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
