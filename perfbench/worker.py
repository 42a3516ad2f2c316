"""The workload process: runs one pass of ops back to back, repeatedly, and
writes what it saw to a JSON file for run.py to check and report.

    python3 perfbench/worker.py PLAN.json RESULT.json SECONDS TRACE SPANS

Every op is an in-process ``rgas.cli.main(argv)`` call timed from outside.
With TRACE=0 the passes run untraced.  With TRACE=1 untraced and traced
passes alternate (so the tracing overhead can be measured), and the public
probes run at the end.  The harness catches whatever an op raises, records
it, and carries on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import rgas
import rgas.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


# An op still running after this long is stopped and counted as failed, so a
# run keeps within its time limit even when an input makes the program crawl.
OP_TIME_LIMIT_S = 30.0


class OpTimeLimit(Exception):
    """Raised inside an op that ran past OP_TIME_LIMIT_S."""


def _stop_op(signum, frame):
    raise OpTimeLimit(f"no answer after {OP_TIME_LIMIT_S:g} s")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return _sha(fh.read())
    except OSError:
        return None


def run_op(op: dict) -> dict:
    """One CLI call.  Times only the call; catches everything it raises."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
        try:
            rc = rgas.cli.main(list(op["argv"]))
        except (Exception, SystemExit) as e:  # the op failed; record it and go on
            rc = None
            exc = "".join(traceback.format_exception_only(type(e), e)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        c1 = time.process_time()
    stdout = out.getvalue()
    digest_parts = [repr(rc), stdout]
    out_path = op["check"].get("out")
    if out_path:
        digest_parts.append(_file_sha(out_path) or "missing")
    return {
        "rc": rc,
        "exception": exc,
        "stdout": stdout,
        "stderr": err.getvalue()[-2000:],
        "digest": _sha("\0".join(digest_parts).encode()),
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
    }


def run_pass(ops: list, tracer=None) -> tuple[list, float, float]:
    with tracer if tracer is not None else contextlib.nullcontext():
        results = [run_op(op) for op in ops]
    if tracer is not None:
        for r in results:
            tracer.counts["cli.bytes_out"] += len(r["stdout"].encode())
            tracer.counts["cli.lines_out"] += r["stdout"].count("\n")
    return results, sum(r["wall_s"] for r in results), sum(r["cpu_s"] for r in results)


def _rate(fn, seconds: float) -> float:
    """Calls per second of fn() over about `seconds` of wall time."""
    fn()
    n, t0 = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def probes(seconds: float) -> dict:
    """Throughput of single public entry points at fixed arguments."""
    import numpy as np
    from rgas import numkernel, quadrature, zerofinder

    def smooth(x):
        return np.exp(np.sin(8.0 * x)) * np.cos(x)

    panels = quadrature.integrate(smooth, 0.0, 10.0, 1e-12).evaluations // 15
    return {
        "numkernel.zeta_per_s.t0": _rate(lambda: numkernel.zeta(2.5), seconds),
        "numkernel.zeta_per_s.t1e3": _rate(lambda: numkernel.zeta(complex(0.5, 1e3)), seconds),
        "numkernel.zeta_per_s.t1e4": _rate(lambda: numkernel.zeta(complex(0.5, 1e4)), seconds),
        "zerofinder.hardy_z_per_s.t1e3": _rate(lambda: zerofinder.hardy_z(1e3), seconds),
        "quadrature.panels_per_s": panels
        * _rate(lambda: quadrature.integrate(smooth, 0.0, 10.0, 1e-12), seconds),
    }


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGALRM, _stop_op)
    plan_path, result_path, seconds, trace, spans_path = argv
    seconds, trace = float(seconds), trace == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    ops = plan["ops"]

    first = None
    mismatched = [False] * len(ops)
    passes = {"untraced": [], "traced": []}
    layer_times, layer_counts, span_passes = [], [], []
    t_begin = time.perf_counter()
    while True:
        traced_now = trace and len(passes["traced"]) < len(passes["untraced"])
        tracer = tracing.Tracer() if traced_now else None
        results, wall, cpu = run_pass(ops, tracer)
        passes["traced" if traced_now else "untraced"].append(
            {"wall_s": wall, "cpu_s": cpu, "op_wall_s": [r["wall_s"] for r in results],
             "op_cpu_s": [r["cpu_s"] for r in results]}
        )
        if first is None:
            first = results
        for i, r in enumerate(results):
            if r["digest"] != first[i]["digest"]:
                mismatched[i] = True
        if tracer is not None:
            times, counts = tracing.layer_figures(tracer.spans, tracer.counts)
            layer_times.append(times)
            layer_counts.append(counts)
            span_passes.append(tracer.spans)
        done = time.perf_counter() - t_begin >= seconds
        if done and (not trace or passes["traced"]):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "rgas_file": os.path.abspath(rgas.__file__),
        "passes": passes,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ops": [
            {k: r[k] for k in ("rc", "exception", "stdout", "stderr", "digest")}
            | {"mismatch": mismatched[i]}
            for i, r in enumerate(first)
        ],
    }
    if trace:
        layers = {k: statistics.median(t[k] for t in layer_times) for k in layer_times[0]}
        layers.update(layer_counts[0])
        layers.update(probes(max(0.02, min(0.3, seconds / 30.0))))
        result["layers"] = layers
        result["counts_repeat"] = all(c == layer_counts[0] for c in layer_counts)
        tracing.write_spans(span_passes, spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
