"""In-memory spans around the public functions of each rgas layer.

The wrappers are installed from outside the program: every rgas module
attribute that *is* one of the traced functions is replaced by one shared
wrapper, so callers that resolve the name at call time (``thermo.integrate``,
``cli.thermo.thermo_point``, ``cli.zerofinder.find_zeros`` ...) go through
it.  Calls a module makes through a private helper are not seen; they count
as self time of the nearest traced caller.

A span is (id, parent id, name, start, end).  A layer's self time is its
spans' duration minus the part covered by their direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute)
TRACED = (
    ("cli.main", "rgas.cli", "main"),
    ("thermo.thermo_point", "rgas.thermo", "thermo_point"),
    ("thermo.free_energy_continuum", "rgas.thermo", "free_energy_continuum"),
    ("thermo.energy_oracle", "rgas.thermo", "energy_oracle"),
    ("thermo.free_energy_discrete", "rgas.thermo", "free_energy_discrete"),
    ("thermo.energy_entropy_discrete", "rgas.thermo", "energy_entropy_discrete"),
    ("thermo.hagedorn_scan", "rgas.thermo", "hagedorn_scan"),
    ("thermo.energy_breakdown", "rgas.thermo", "energy_breakdown"),
    ("quadrature.integrate", "rgas.quadrature", "integrate"),
    ("quadrature.integrate_exp_weight", "rgas.quadrature", "integrate_exp_weight"),
    ("quadrature.principal_value", "rgas.quadrature", "principal_value"),
    ("numkernel.zeta", "rgas.numkernel", "zeta"),
    ("numkernel.zeta_log_derivative", "rgas.numkernel", "zeta_log_derivative"),
    ("numkernel.zeta_derivative", "rgas.numkernel", "zeta_derivative"),
    ("numkernel.digamma", "rgas.numkernel", "digamma"),
    ("numkernel.exp_integral_ei", "rgas.numkernel", "exp_integral_ei"),
    ("numkernel.log_gamma", "rgas.numkernel", "log_gamma"),
    ("zerofinder.find_zeros", "rgas.zerofinder", "find_zeros"),
    ("zerofinder.save_table", "rgas.zerofinder", "save_table"),
    ("zerofinder.load_table", "rgas.zerofinder", "load_table"),
    ("superzeta.sum_inverse_rho", "rgas.superzeta", "sum_inverse_rho"),
)

INTEGRAND = "quadrature.integrand"


class Tracer:
    """Span recorder plus the counts that only the call results carry."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _wrap(self, name, fn):
        tracer = self

        if name == "quadrature.integrate":
            def wrapper(f, *args, **kwargs):
                def integrand(x):
                    tracer.counts["quadrature.integrand_calls"] += 1
                    return tracer._call(INTEGRAND, f, (x,), {})

                res = tracer._call(name, fn, (integrand,) + args, kwargs)
                tracer.counts["quadrature.nodes"] += int(res.evaluations)
                tracer.counts["quadrature.unconverged"] += 0 if res.converged else 1
                return res
        elif name == "zerofinder.find_zeros":
            def wrapper(*args, **kwargs):
                table = tracer._call(name, fn, args, kwargs)
                tracer.counts["zerofinder.zeros_found"] += int(table.count)
                return table
        elif name == "thermo.thermo_point":
            def wrapper(spec, *args, **kwargs):
                if spec.kind == "discrete":
                    # marks the span so f passes can be attributed to it
                    tracer.counts["thermo.discrete_points"] += 1
                    return tracer._call("thermo.thermo_point[discrete]", fn, (spec,) + args, kwargs)
                return tracer._call(name, fn, (spec,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every rgas module attribute bound to a traced function."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "rgas" or k.startswith("rgas.")]
        for name, modname, attr in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def write_spans(passes: list, path: str) -> None:
    """One JSON line per span: [pass, id, parent, name, start, end]."""
    with open(path, "w", encoding="ascii") as fh:
        for k, spans in enumerate(passes):
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps([k, sid, parent, name, round(start, 9), round(end, 9)]) + "\n")


def _base(name: str) -> str:
    return name.split("[", 1)[0]


def layer_figures(spans: list, counts: Counter) -> tuple[dict, dict]:
    """Per-layer (times, counts) for one pass: `spans` and `counts` hold
    exactly what one pass recorded.  Times are seconds; counts, and the
    ratios of counts, repeat exactly for the same inputs."""
    dur = {}
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        dur[sid] = end - start
        if parent >= 0:
            child_time[parent] += end - start
    by_id = {s[0]: s for s in spans}

    incl = defaultdict(float)
    self_t = defaultdict(float)
    calls = Counter()
    numkernel_calls = 0
    numkernel_s = 0.0
    f_passes_in_points = 0
    for sid, parent, name, start, end in spans:
        base = _base(name)
        incl[base] += dur[sid]
        self_t[base] += dur[sid] - child_time[sid]
        calls[base] += 1
        parent_name = by_id[parent][2] if parent >= 0 else ""
        if base.startswith("numkernel.") and not parent_name.startswith("numkernel."):
            numkernel_calls += 1
            numkernel_s += dur[sid]
        if base == "thermo.free_energy_discrete":
            # count the f passes made on behalf of a discrete thermo point,
            # directly or through energy_entropy_discrete
            up = parent
            while up >= 0 and by_id[up][2] not in ("thermo.thermo_point[discrete]", "cli.main"):
                up = by_id[up][1]
            if up >= 0 and by_id[up][2] == "thermo.thermo_point[discrete]":
                f_passes_in_points += 1

    points = counts["thermo.discrete_points"]
    zeros_found = counts["zerofinder.zeros_found"]
    integrand_calls = counts["quadrature.integrand_calls"]
    find_s = incl["zerofinder.find_zeros"]
    times = {
        "cli.self_s": self_t["cli.main"],
        "thermo.thermo_point.self_s": self_t["thermo.thermo_point"],
        "thermo.free_energy_continuum.s": incl["thermo.free_energy_continuum"],
        "thermo.energy_oracle.s": incl["thermo.energy_oracle"],
        "thermo.hagedorn_scan.s": incl["thermo.hagedorn_scan"],
        "thermo.energy_breakdown.self_s": self_t["thermo.energy_breakdown"],
        "quadrature.self_s": self_t["quadrature.integrate"],
        "quadrature.integrand_s": incl[INTEGRAND],
        "numkernel.s": numkernel_s,
        "zerofinder.find_zeros.s": find_s,
        "zerofinder.s_per_zero": find_s / zeros_found if zeros_found else 0.0,
        "zerofinder.save_table.s": incl["zerofinder.save_table"],
        "zerofinder.load_table.s": incl["zerofinder.load_table"],
        "superzeta.sum_inverse_rho.s": incl["superzeta.sum_inverse_rho"],
    }
    counts_out = {
        "cli.ops": calls["cli.main"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "cli.lines_out": counts["cli.lines_out"],
        "thermo.thermo_point.calls": calls["thermo.thermo_point"],
        "thermo.discrete.points": points,
        "thermo.discrete.f_passes_per_point": f_passes_in_points / points if points else 0.0,
        "quadrature.calls": calls["quadrature.integrate"],
        "quadrature.nodes": counts["quadrature.nodes"],
        "quadrature.nodes_per_integrand_call": (
            counts["quadrature.nodes"] / integrand_calls if integrand_calls else 0.0
        ),
        "quadrature.unconverged": counts["quadrature.unconverged"],
        "numkernel.calls": numkernel_calls,
        "zerofinder.zeros_found": zeros_found,
        "superzeta.sum_inverse_rho.calls": calls["superzeta.sum_inverse_rho"],
        "trace.spans": len(spans),
    }
    return times, counts_out
