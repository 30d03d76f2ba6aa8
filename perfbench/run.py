#!/usr/bin/env python3
"""End-to-end benchmark of the faithful protocol, the gauntlet, the model
checker and the sparse kernel.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

It builds perfbench/bench.exe with dune, runs one workload and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones; a layer the workload never calls
reads 0. ``--selftest`` runs every workload at toy size, validates the
output, and proves each workload's checks catch a seeded defect.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("run from the repository root (no dune-project here)")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        stdout=subprocess.DEVNULL,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_bench(args, timeout=TIMEOUT_S):
    """Run bench.exe and return its result object (the last stdout line)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"bench.exe exited {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        fail("bench.exe printed nothing")
    return json.loads(lines[-1])


def complete(result, declared):
    """Check the reported metrics against BENCHMARK.json, fill the layers
    the workload never calls with 0, and order them as declared."""
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in got.items():
        if name not in units:
            fail(f"undeclared metric {name}")
        if m["unit"] != units[name]:
            fail(f"metric {name}: unit {m['unit']}, declared {units[name]}")
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not finite")
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit}) for name, unit in units.items()
    }
    return result


def measure(spec, workload, seed, seconds, trace, extra=()):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        fail(f"unknown workload {workload} (expected one of {', '.join(names)})")
    result = run_bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)] + list(extra)
    )
    if trace == 0:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in result["metrics"]]
        if missing:
            fail(f"missing end-to-end metrics: {', '.join(missing)}")
    return complete(result, spec["per_layer"] if trace else spec["end_to_end"])


def selftest(spec):
    """Every workload at toy size: clean runs must be correct with every
    metric present, and a seeded defect must make ops fail."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            r = measure(spec, name, 1, 0.5, trace, ["--small"])
            ok = r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
            print(f"{name} trace={trace}: attempted={r['attempted']} failed={r['failed']}"
                  f" {'ok' if ok else 'WRONG'}")
            if not ok:
                problems.append(f"{name} trace={trace} not correct")
        r = measure(spec, name, 1, 1, 0, ["--small", "--sabotage"])
        caught = (not r["correct"]) and r["failed"] > 0
        print(f"{name} sabotaged: attempted={r['attempted']} failed={r['failed']}"
              f" {'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append(f"{name}: seeded defect not caught")
    if problems:
        fail("selftest failed: " + "; ".join(problems))
    print(json.dumps({"selftest": "ok"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    build()
    if a.selftest:
        selftest(spec)
        return
    if a.workload is None:
        fail("--workload is required")
    print(json.dumps(measure(spec, a.workload, a.seed, a.seconds, a.trace)))


if __name__ == "__main__":
    main()
