"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it makes two traced
runs with the same seed and one untraced run, and checks that

* every metric named in BENCHMARK.json is reported, with its unit;
* every count (calls, nodes, rows, bytes, f passes per point) repeats
  exactly between the two traced runs;
* failed ops are counted and do not stop the harness: the breakdown run
  carries the op ``breakdown --lam 100 --beta 0.1`` (lam/beta > 709, which
  makes the exponential integral overflow at this version) and an op whose
  spec file is a directory, which no version can answer.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
SEED = 7


def _counts(layers: dict, wanted: list) -> dict:
    return {
        m["name"]: layers[m["name"]]
        for m in wanted
        if m["unit"] in ("count", "bytes", "ratio") and m["name"] != "trace.overhead_frac"
    }


def main() -> int:
    root = os.getcwd()
    problems = []
    unanswerable = {
        "argv": ["thermo", "--spec-file", "perfbench", "--beta-min", "1", "--beta-max", "2",
                 "--steps", "2"],
        "check": {"kind": "thermo"},
    }
    extra = {
        "breakdown": (workloads.breakdown_op(100.0, 0.1, 100), unanswerable),
    }
    for workload in workloads.WORKLOADS:
        ops = extra.get(workload, ())
        reports = {}
        for label, trace in (("traced", True), ("traced again", True), ("untraced", False)):
            e2e, layers, notes = run.run(workload, SEED, 0.0, trace, SCALE, ops)
            wanted = run.benchmark_metrics(root, trace)
            line = run.result_line(e2e, layers, notes, trace, wanted)
            for m in wanted:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} {label}: metric {m['name']} missing or malformed")
            if trace:
                reports[label] = _counts(layers, wanted)
                if not e2e["counts_repeat"]:
                    problems.append(f"{workload} {label}: counts differ between passes")
            failed_ops = {n["op"] for n in notes}
            n_plan = e2e["ops"]
            if abs(layers.get("fail_frac", e2e["fail_frac"]) - len(failed_ops) / n_plan) > 0:
                problems.append(f"{workload} {label}: fail_frac does not match the failed ops")
            if e2e["wrong_outputs"]:
                problems.append(f"{workload} {label}: wrong outputs {notes}")
            if ops:
                first_extra = n_plan - len(ops)
                if first_extra + 1 not in failed_ops:
                    problems.append(f"{workload} {label}: unanswerable op not counted as failed")
                status = "failed" if first_extra in failed_ops else "answered and checked"
                print(f"{workload} {label}: breakdown --lam 100 --beta 0.1 {status}; "
                      f"fail_frac {e2e['fail_frac']:.3f}")
        a, b = reports["traced"], reports["traced again"]
        for name in a:
            if a[name] != b[name]:
                problems.append(f"{workload}: count {name} {a[name]!r} then {b[name]!r}")
        print(f"{workload}: {len(a)} counts compared, "
              f"{sum(1 for v in a.values() if v)} non-zero")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
