"""rgas benchmark: one closed-loop workload per run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports the program from ./src, so
it builds nothing.  The steps are:

1. Draw the workload's pass of CLI ops from the seed (workloads.py). Write
   its input files under .perfbench-run/.
2. Time set-up: fresh interpreters that import rgas.cli and build its
   parser.
3. Start one workload process (worker.py), with the BLAS thread pools
   pinned to 1. It runs the pass back to back for S seconds: one client,
   each op an in-process rgas.cli.main(argv) call.
4. Check every op's output against independent references (checks.py), and
   against the bytes that the same op printed in earlier runs of this seed
   on the same source.

It prints an environment record, then one JSON line with the results.
With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import workloads  # noqa: E402

STATE = ".perfbench-run"
TIME_LIMIT_S = 150.0  # for everything up to the checks; a run must end within 180 s
SETUP_SAMPLES = 5  # before the workload process, and as many again after it
# One set-up: a fresh interpreter until it can run its first op.  The time is
# taken from the shared monotonic clock, so interpreter start counts too.
SETUP_CODE = (
    "import contextlib, io, time\n"
    "import rgas.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rgas.cli.main(['--help'])\n"
    "print(repr(time.monotonic()))\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("RGAS_TOL", "RGAS_ZEROS"):
        env.pop(var, None)
    return env


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "rgas")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def measure_setup(env: dict, deadline: float, warm_up: bool) -> list[float]:
    """Set-up times of fresh interpreters; a warm-up one fills the file
    caches and is not kept."""
    times = []
    for _ in range(SETUP_SAMPLES + int(warm_up)):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip()) - t0)
    return times[int(warm_up):]


def environment(root: str, digest: str, run_info: dict) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        **run_info,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": child_env(root)["OPENBLAS_NUM_THREADS"],
        "mpmath": getattr(checks.mpmath, "__version__", None),
        "git_commit": commit,
        "src_sha256": digest,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        extra_ops: tuple = ()) -> tuple[dict, dict, list]:
    """One benchmark run in the current directory.  Returns (end-to-end
    figures, per-layer figures or {}, per-op failure notes)."""
    root = os.getcwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(root, "src", "rgas", "cli.py")):
        raise BenchError("no src/rgas/cli.py here: run from the root of an rgas checkout")
    digest = source_digest(root)
    tag = f"{workload}-{seed}" + ("" if scale == 1.0 else f"-x{scale:g}")
    workdir = os.path.join(STATE, "work", tag)
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(STATE, "digests"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)

    plan = workloads.make_plan(workload, seed, workdir, scale)
    plan["ops"].extend(extra_ops)
    for path, text in plan["files"].items():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    for op in plan["ops"]:  # outputs left by an earlier run must not count
        out = op["check"].get("out")
        if out and os.path.exists(out):
            os.remove(out)
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, f"result-{int(trace)}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    if os.path.exists(result_path):
        os.remove(result_path)

    env = child_env(root)
    # set-up samples on both sides of the workload process, so that a slow
    # spell of a shared host weighs on both figures alike
    setup = measure_setup(env, deadline, warm_up=True)
    spans_path = os.path.join(STATE, "spans", f"{tag}.jsonl")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
             plan_path, result_path, repr(float(seconds)), str(int(trace)), spans_path],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process ran out of time") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"workload process failed: {proc.stderr.strip()[-2000:]}")
    setup += measure_setup(env, deadline, warm_up=False)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    if not res["rgas_file"].startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"imported rgas from {res['rgas_file']}, not from this checkout")

    # Same bytes as every earlier run of these ops on this source?
    plan_digest = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    digest_path = os.path.join(STATE, "digests", f"{tag}-{digest[:16]}-{plan_digest[:16]}.json")
    earlier = None
    if os.path.exists(digest_path):
        with open(digest_path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    else:
        with open(digest_path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump([o["digest"] for o in res["ops"]], fh)
        os.replace(digest_path + ".tmp", digest_path)

    notes = []
    for i, (op, out) in enumerate(zip(plan["ops"], res["ops"])):
        wrong = []
        if out["exception"] is not None:
            failure = f"raised {out['exception']}"
        elif out["rc"] != 0:
            failure = f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"
        else:
            failure = None
            wrong = checks.check(op, out["stdout"])
            if out["mismatch"]:
                wrong.append("stdout differs between passes of this run")
            if earlier is not None and earlier[i] != out["digest"]:
                wrong.append("stdout differs from an earlier run with this seed")
        if failure or wrong:
            notes.append({"op": i, "argv": op["argv"], "failure": failure, "wrong": wrong})

    n_passes = len(res["passes"]["untraced"]) + len(res["passes"]["traced"])
    untraced = res["passes"]["untraced"]
    e2e = {
        "setup_s": statistics.median(setup),
        "run_s": best_pass(untraced, "op_wall_s"),
        "cpu_s": best_pass(untraced, "op_cpu_s"),
        "median_pass_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": len(plan["ops"]) * n_passes,
        "failed": len(notes) * n_passes,
        "fail_frac": len(notes) / len(plan["ops"]),
        "passes": n_passes,
        "ops": len(plan["ops"]),
        "wrong_outputs": sum(1 for n in notes if n["wrong"]),
        "env": environment(root, digest, {"workload": workload, "seed": seed,
                                          "seconds": seconds, "trace": int(trace)}),
    }
    layers = {}
    if trace:
        traced = best_pass(res["passes"]["traced"], "op_wall_s")
        layers = dict(res["layers"], fail_frac=e2e["fail_frac"])
        layers["trace.overhead_frac"] = traced / e2e["run_s"] - 1.0
        e2e["counts_repeat"] = res["counts_repeat"]
    return e2e, layers, notes


def best_pass(passes: list, key: str) -> float:
    """Sum over the pass's ops of each op's fastest repeat.  Contention on
    a shared host only adds time, so this is the steadiest figure."""
    return sum(min(times) for times in zip(*(p[key] for p in passes)))


def benchmark_metrics(root: str, trace: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(e2e: dict, layers: dict, notes: list, trace: bool, wanted: list) -> dict:
    """The final JSON object: the metrics BENCHMARK.json names, in its units."""
    figures = layers if trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise BenchError(f"no figure for {missing}")
    # A wrong answer makes the run incorrect; an op that raised or exited
    # non-zero gave no answer and counts as failed.
    correct = e2e["wrong_outputs"] == 0 and e2e["failed"] < e2e["attempted"]
    if trace:
        correct = correct and e2e["counts_repeat"]
    return {
        "correct": correct,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trace = bool(args.trace)
    try:
        wanted = benchmark_metrics(os.getcwd(), trace)
        e2e, layers, notes = run(args.workload, args.seed, args.seconds, trace)
        line = result_line(e2e, layers, notes, trace, wanted)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if checks.mpmath is None:
        print("perfbench: mpmath is missing; the mpmath reference checks were skipped",
              file=sys.stderr)
    for n in notes:
        print(f"perfbench: op {n['op']} {' '.join(n['argv'])}: "
              f"{n['failure'] or '; '.join(n['wrong'])}", file=sys.stderr)
    print(json.dumps({"env": e2e["env"], "passes": e2e["passes"],
                      "median_pass_s": e2e["median_pass_s"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
