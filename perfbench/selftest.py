#!/usr/bin/env python3
"""Self-test of the benchmark's output checks. Run from the repository root:

    python3 perfbench/selftest.py

1. A run with the recorded digests passes: correct, failed = 0.
2. The same run, with run.py's EXPECTED pointed at a copy of expected.json
   that holds one wrong digest, fails every run: correct = false,
   failed = attempted, ok_share = 0.
3. A directory that holds only BENCHMARK.json and perfbench/ (no library
   sources) makes run.py exit non-zero without printing a result line.

Uses lu_bare, the shortest workload, and writes only under .bench_build/.
Exits 0 when every case holds.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

# Import run.py without leaving a __pycache__ in the benchmark's directory.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (perfbench/run.py)

WORKLOAD = "lu_bare"
ARGS = ["--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0"]
SCRATCH = os.path.join(".bench_build", "selftest")


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run(cwd="."):
    """run.py as its own process in `cwd`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + ARGS,
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, result_of(proc.stdout)


def run_with_expected(path):
    """run.py's main() in this process, checking against `path`."""
    saved = bench.EXPECTED, sys.argv
    bench.EXPECTED, sys.argv = path, ["run.py"] + ARGS
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = bench.main()
    finally:
        bench.EXPECTED, sys.argv = saved
    return rc, result_of(out.getvalue())


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    rc, res = run()
    expect(rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
           "recorded digests: correct, failed = 0")

    os.makedirs(SCRATCH, exist_ok=True)
    with open("perfbench/expected.json") as f:
        expected = json.load(f)
    recorded = expected[WORKLOAD]["1"]
    recorded["bare_digest"] = "0" * 16
    wrong = os.path.join(SCRATCH, "wrong_expected.json")
    with open(wrong, "w") as f:
        json.dump(expected, f)
    rc, res = run_with_expected(wrong)
    expect(rc != 0 and res is not None and not res["correct"]
           and res["failed"] == res["attempted"] > 0
           and res["metrics"]["ok_share"]["value"] == 0.0,
           "wrong recorded digest: failed_share = 1, correct = false")

    bare = os.path.join(SCRATCH, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, res = run(cwd=bare)
    expect(rc != 0 and res is None, "no library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
