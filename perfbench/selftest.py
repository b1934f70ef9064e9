#!/usr/bin/env python3
"""Self-test of the interactive-session benchmark.

    python3 perfbench/selftest.py

Run from the repository root (it builds through run.py if needed). A
tiny-size pass of each workload, untraced and traced, checks that:

  * every metric named in BENCHMARK.json is emitted, with its unit, and
    no other, and the result line has exactly the contract's keys;
  * the traced spans nest: each child lies inside its parent and every
    self time is >= 0;
  * the inputs are deterministic: the trace and script files that tiny
    untraced runs leave in separate work directories are byte-identical
    for seeds 7 and 7 and differ for seeds 7 and 8.

Exits 0 when every check passes; prints each failure otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
WORK = ROOT / ".bench_build" / "selftest"

# Every workload the driver knows, including synth10k-reshape, which
# BENCHMARK.json leaves out (see README.md) but which stays runnable.
WORKLOADS = ["g5k-explore", "g5k-scrub", "synth10k-reshape"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def run(args):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=600)


def result_of(name, trace, expected, seed, work):
    """Run a tiny pass in `work`; return the input files it left there."""
    work_arg = str(work.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", "--work", work_arg]
    proc = run(args)
    check(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}")
    if proc.returncode != 0:
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name} trace={trace}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{name} trace={trace}: correct={result['correct']} "
          f"failed={result['failed']} attempted={result['attempted']}")
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    check(set(metrics) == names,
          f"{name} trace={trace}: metric names differ: "
          f"missing {sorted(names - set(metrics))}, "
          f"extra {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float)),
              f"{name} trace={trace}: {m['name']} = {got}")
    # The script names the trace and frame files by their path in the
    # work directory; a placeholder lets runs in other directories
    # compare equal.
    return {p.name: p.read_bytes().replace(work_arg.encode(), b"<work>")
            for p in sorted(work.iterdir())
            if p.name == "script.txt" or p.name.startswith("trace.")}


def check_spans(name, work):
    path = work / "spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    check(len(spans) > 0, f"{name}: no spans recorded")
    for s in spans:
        check(s["end"] >= s["start"] and s["self"] >= 0,
              f"{name}: span {s['id']} {s['name']} has negative time")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            check(p["start"] <= s["start"] and s["end"] <= p["end"],
                  f"{name}: span {s['id']} {s['name']} leaves its parent "
                  f"{p['id']} {p['name']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload the driver does not know")
    for name in WORKLOADS:
        e2e = spec["end_to_end"]
        first = result_of(name, 0, e2e, 7, WORK / name / "seed7")
        again = result_of(name, 0, e2e, 7, WORK / name / "seed7-again")
        other = result_of(name, 0, e2e, 8, WORK / name / "seed8")
        traced = WORK / name / "traced"
        result_of(name, 1, spec["per_layer"], 7, traced)
        check_spans(name, traced)
        check(len(first) == 2, f"{name}: inputs left behind: {sorted(first)}")
        check(first == again, f"{name}: same seed, different inputs")
        for f in first:
            check(first[f] != other.get(f),
                  f"{name}: seeds 7 and 8 give the same {f}")
        print(f"{name}: done")
    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
