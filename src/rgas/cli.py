"""Command-line front end.

Subcommands: ``zeros``, ``eval``, ``thermo``, ``breakdown``, ``hagedorn``,
``validate``.  Numbers are printed with 12 significant digits in both CSV
and JSON so identical configurations produce byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure.  Defaults for tolerance and zero count honor the environment
variables RGAS_TOL and RGAS_ZEROS; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import arith, numkernel, superzeta, thermo, zerofinder
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    HagedornError,
    MissedZeroError,
    PoleError,
    RgasError,
    TableFormatError,
)

__all__ = ["main", "console_main"]

_TOL_RANGE = (1e-12, 1e-3)


def _fmt(x: float) -> str:
    """12 significant digits; normalizes -0.0 and renders nan/inf as text."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x + 0.0, ".12g")


def _json_render(obj, indent: int = 0) -> str:
    """Tiny JSON writer whose numbers are exactly the 12-digit decimals."""
    pad = "  " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  "{k}": {_json_render(v, indent + 1).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{inner}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        inner = ",\n".join(f"{pad}  {_json_render(v, indent + 1).lstrip()}" for v in obj)
        return f"{pad}[\n{inner}\n{pad}]"
    if isinstance(obj, bool):
        return f"{pad}{'true' if obj else 'false'}"
    if isinstance(obj, (int, np.integer)):
        return f"{pad}{int(obj)}"
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            return f'{pad}"{_fmt(obj)}"'
        return f"{pad}{_fmt(obj)}"
    return f'{pad}"{obj}"'


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """argparse type for float options: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _env_default(name: str, fallback, kind, what: str):
    """The environment's value of `name` as `kind`, or the fallback."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return kind(raw)
    except ValueError as exc:
        raise DomainError(f"environment {name}={raw!r} is not {what}") from exc


def _load_discrete_spec(path: str, volume: float) -> thermo.EnsembleSpec:
    """Two-column `omega,probability` file with # comments.  Masses are
    renormalized only when they already sum to 1 within 1e-9."""
    omegas, masses = [], []
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.replace(",", " ").split()
            try:
                omega, mass = map(float, parts)
            except ValueError:
                msg = f"{path}:{ln}: expected 'omega,probability', got {body!r}"
                raise DomainError(msg) from None
            omegas.append(omega)
            masses.append(mass)
    if not omegas:
        raise DomainError(f"{path}: no ensemble rows found")
    total = sum(masses)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(
            f"{path}: probabilities sum to {total!r}, more than 1e-9 from 1; refusing to rescale"
        )
    masses = [m / total for m in masses]
    return thermo.EnsembleSpec.discrete(omegas, masses, volume)


def _load_head(path: str, count: int | None) -> zerofinder.ZeroTable:
    """The table in the file, cut to its first `count` ordinates if given."""
    table = zerofinder.load_table(path)
    return table.head(count) if count and count < table.count else table


def _get_zero_table(args, default_count: int) -> zerofinder.ZeroTable:
    """Explicit --zeros-count slices a loaded file; the default only sizes a
    fresh computation."""
    if args.zeros_file:
        return _load_head(args.zeros_file, args.zeros_count)
    return zerofinder.find_zeros(args.zeros_count or default_count)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_zeros(args) -> int:
    if args.infile:
        table = _load_head(args.infile, args.count)
    else:
        if not args.count or args.count < 1:
            raise DomainError("zeros: --count must be a positive integer")
        table = zerofinder.find_zeros(args.count)
    if args.out:
        zerofinder.save_table(table, args.out)
        print(f"wrote {table.count} ordinates to {args.out} (abs_error {_fmt(table.abs_error)})")
    else:
        sys.stdout.write(zerofinder._table_text(table))
    return 0


_EVAL_FUNCS = {
    "zeta": lambda s, args: numkernel.zeta(s),
    "zeta-derivative": lambda s, args: numkernel.zeta_derivative(s),
    "zeta-log-derivative": lambda s, args: numkernel.zeta_log_derivative(s),
    "log-zeta": lambda s, args: numkernel.log_zeta_principal(s),
    "hurwitz": lambda s, args: numkernel.hurwitz_zeta(s, args.q),
    "log-gamma": lambda s, args: numkernel.log_gamma(s),
    "digamma": lambda s, args: complex(numkernel.digamma(s.real), 0.0),
    "ei": lambda s, args: complex(numkernel.exp_integral_ei(s.real), 0.0),
    "theta": lambda s, args: complex(zerofinder.riemann_siegel_theta(s.real), 0.0),
    "hardy-z": lambda s, args: complex(zerofinder.hardy_z(s.real), 0.0),
}


_REAL_ONLY_FNS = {"digamma", "ei", "theta", "hardy-z"}


def _cmd_eval(args) -> int:
    if args.fn in _REAL_ONLY_FNS and args.im != 0.0:
        raise DomainError(f"{args.fn} takes a real argument; drop --im")
    s = complex(args.re, args.im)
    value = _EVAL_FUNCS[args.fn](s, args)
    if args.format == "json":
        text = _json_render(
            {
                "fn": args.fn,
                "re": args.re,
                "im": args.im,
                "value_re": value.real,
                "value_im": value.imag,
            }
        ) + "\n"
    else:
        text = "fn,re,im,value_re,value_im\n" + ",".join(
            [args.fn, _fmt(args.re), _fmt(args.im), _fmt(value.real), _fmt(value.imag)]
        ) + "\n"
    _emit(text, args.out)
    return 0


def _beta_grid(args) -> np.ndarray:
    if args.steps < 1:
        raise DomainError("steps must be >= 1")
    if not (args.beta_min > 0.0 and args.beta_max >= args.beta_min):
        raise DomainError("need 0 < beta-min <= beta-max")
    if args.steps == 1:
        return np.array([args.beta_min])
    return np.linspace(args.beta_min, args.beta_max, args.steps)


def _cmd_thermo(args) -> int:
    spec = _make_ensemble(args)
    points = thermo.thermo_scan(spec, _beta_grid(args), args.tolerance)
    rows = [
        {
            "beta": p.beta,
            "f_re": p.f.real,
            "f_im": p.f.imag,
            "eps": p.eps,
            "entropy": p.entropy,
            "flags": ";".join(sorted(p.flags)),
        }
        for p in points
    ]
    if args.format == "json":
        text = _json_render(rows) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in r.values()) for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _make_ensemble(args) -> thermo.EnsembleSpec:
    if getattr(args, "spec_file", None):
        return _load_discrete_spec(args.spec_file, args.volume)
    if getattr(args, "lam", None) is None:
        raise DomainError("either --lam or --spec-file is required")
    return thermo.EnsembleSpec.continuum(args.lam, args.volume)


def _cmd_breakdown(args) -> int:
    if getattr(args, "spec_file", None):
        raise DomainError("breakdown requires a continuum ensemble (--lam)")
    spec = _make_ensemble(args)
    table = _get_zero_table(args, args.zeros_default)
    bd = thermo.energy_breakdown(spec, args.beta, table, args.tolerance)
    payload = {
        "beta": bd.beta,
        "lambda": bd.rate,
        "volume": bd.volume,
        "zeros_used": table.count,
        "eps1": bd.eps1,
        "eps2": bd.eps2,
        "eps3": bd.eps3,
        "eps4": bd.eps4,
        "eps5": bd.eps5,
        "eps6": bd.eps6,
        "eps_A": bd.eps_a,
        "eps_B": bd.eps_b,
        "total": bd.total,
        "oracle": bd.oracle,
        "abs_error": bd.abs_error,
        "eps1_printed": bd.eps1_printed,
        "eps3_printed": bd.eps3_printed,
        "eps5_printed": bd.eps5_printed,
        "thermal_printed": bd.thermal_printed,
        "printed_truncation_index": bd.printed_truncation_index,
        "printed_truncation_error": bd.printed_truncation_error,
        "deviation_eps1": bd.deviation_eps1,
        "deviation_eps3": bd.deviation_eps3,
        "deviation_thermal": bd.deviation_thermal,
    }
    _emit(_json_render(payload) + "\n", args.out)
    return 0


def _cmd_hagedorn(args) -> int:
    if not getattr(args, "spec_file", None):
        raise DomainError("hagedorn requires a discrete ensemble (--spec-file)")
    spec = _load_discrete_spec(args.spec_file, args.volume)
    points = thermo.hagedorn_scan(spec, _beta_grid(args))
    if args.format == "json":
        payload = [
            {"beta": p.beta, "f": p.f.real, "divergent": "hagedorn_divergent" in p.flags}
            for p in points
        ]
        text = _json_render(payload) + "\n"
    else:
        lines = ["beta,f,flags"]
        lines += [
            ",".join([_fmt(p.beta), _fmt(p.f.real), ";".join(sorted(p.flags))]) for p in points
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def _validate_checks(tol: float, zeros_count: int):
    """The identity suite.  Each check uses the larger of the requested
    tolerance and its intrinsic floor (the attainable accuracy of the
    quantities involved)."""
    checks = []

    def run(name: str, floor: float, fn) -> None:
        eff = max(tol, floor)
        try:
            worst = fn(eff)
            checks.append((name, worst <= eff, worst, eff, ""))
        except RgasError as exc:
            checks.append((name, False, math.nan, eff, f"{type(exc).__name__}: {exc}"))

    def functional_equation(eff: float) -> float:
        rng = np.random.default_rng(20260811)
        worst = 0.0
        for _ in range(50):
            sigma = rng.uniform(0.05, 0.95)
            t = rng.uniform(-30.0, 30.0)
            s = complex(sigma, t)
            left = (
                math.pi ** (-s.real / 2)
                * np.exp(-1j * (s.imag / 2) * math.log(math.pi))
                * np.exp(numkernel.log_gamma(s / 2))
                * numkernel.zeta(s)
            )
            s1 = 1.0 - s
            right = (
                math.pi ** (-s1.real / 2)
                * np.exp(-1j * (s1.imag / 2) * math.log(math.pi))
                * np.exp(numkernel.log_gamma(s1 / 2))
                * numkernel.zeta(s1)
            )
            worst = max(worst, abs(complex(left - right)))
        return worst

    def mixture(eff: float) -> float:
        return arith.mixture_identity_residual(2.0, 100_000)

    @functools.cache
    def zero_table() -> zerofinder.ZeroTable:
        return zerofinder.find_zeros(zeros_count)

    def two_route(eff: float) -> float:
        worst = 0.0
        for t in (1.0, 1.5, 3.0):
            zs = superzeta.g1_zero_sum(1.0, t, zero_table())
            ident = superzeta.g1_via_identity(t)
            excess = abs(zs.value - ident) - zs.tail.bound
            worst = max(worst, excess)
        return max(worst, 0.0)

    def im_free_energy(eff: float) -> float:
        spec = thermo.EnsembleSpec.continuum(1.0)
        f = thermo.free_energy_continuum(spec, 1.3, 1e-10)
        return abs(f.imag - thermo.free_energy_im_closed_form(spec, 1.3))

    def entropy_identity(eff: float) -> float:
        spec = thermo.EnsembleSpec.continuum(1.0)
        b, h = 1.7, 1e-3
        point = thermo.thermo_point(spec, b, 1e-10)
        fp = thermo.free_energy_continuum(spec, b + h, 1e-11).real
        fm = thermo.free_energy_continuum(spec, b - h, 1e-11).real
        fp2 = thermo.free_energy_continuum(spec, b + 2 * h, 1e-11).real
        fm2 = thermo.free_energy_continuum(spec, b - 2 * h, 1e-11).real
        s_fd = b * b * (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
        return abs(point.entropy - s_fd)

    def zero_audit(eff: float) -> float:
        table = zero_table()
        worst = 0
        for t_chk in (50.0, 100.0, 200.0):
            if t_chk < float(table.gammas[-1]):
                worst = max(
                    worst,
                    abs(table.count_below(t_chk) - round(zerofinder.zero_count_estimate(t_chk))),
                )
        return float(worst) - 1.0  # pass when drift <= 1

    run("functional_equation", 1e-10, functional_equation)
    run("mixture_identity", 1e-4, mixture)
    run("superzeta_two_route", 0.0, two_route)
    run("im_free_energy_closed_form", 1e-8, im_free_energy)
    run("entropy_identity", 1e-6, entropy_identity)
    run("zero_count_audit", 0.0, zero_audit)
    return checks


def _cmd_validate(args) -> int:
    checks = _validate_checks(args.tolerance, args.zeros_count)
    width = max(len(c[0]) for c in checks)
    all_ok = True
    for name, ok, worst, eff, note in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        detail = note if note else f"worst={_fmt(worst)} tol={_fmt(eff)}"
        print(f"{name.ljust(width)}  {status}  {detail}")
    print("validate:", "all checks passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _build_parser(tol_default: float, zeros_default: int) -> argparse.ArgumentParser:
    """Built once per pair of defaults; parse_args leaves a parser as it was."""
    p = argparse.ArgumentParser(
        prog="rgas",
        description="Thermodynamics of the bosonic randomized Riemann gas.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, betas: bool = False) -> None:
        sp.add_argument("--tolerance", "--tol", type=_finite_float, default=tol_default)
        sp.add_argument("--volume", type=_finite_float, default=1.0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None)
        if betas:
            sp.add_argument("--beta-min", type=_finite_float, required=True)
            sp.add_argument("--beta-max", type=_finite_float, required=True)
            sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("zeros", help="compute or reuse a zero table")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_zeros)

    sp = sub.add_parser("eval", help="evaluate a special-function kernel")
    sp.add_argument("--fn", choices=sorted(_EVAL_FUNCS), required=True)
    sp.add_argument("--re", type=_finite_float, required=True)
    sp.add_argument("--im", type=_finite_float, default=0.0)
    sp.add_argument("--q", type=_finite_float, default=1.0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_eval)

    sp = sub.add_parser("thermo", help="free energy / energy / entropy scan")
    sp.add_argument("--lam", type=_finite_float, default=None)
    sp.add_argument("--spec-file", default=None)
    add_common(sp, betas=True)
    sp.set_defaults(handler=_cmd_thermo)

    sp = sub.add_parser("breakdown", help="six-term energy decomposition")
    sp.add_argument("--lam", type=_finite_float, required=True)
    sp.add_argument("--beta", type=_finite_float, required=True)
    sp.add_argument("--zeros-count", type=int, default=None)
    sp.add_argument("--zeros-file", default=None)
    sp.set_defaults(zeros_default=zeros_default)
    add_common(sp)
    sp.set_defaults(handler=_cmd_breakdown)

    sp = sub.add_parser("hagedorn", help="flag the divergent temperatures")
    sp.add_argument("--spec-file", required=True)
    add_common(sp, betas=True)
    sp.set_defaults(handler=_cmd_hagedorn)

    sp = sub.add_parser("validate", help="run the identity suite")
    sp.add_argument("--tolerance", "--tol", type=_finite_float, default=tol_default)
    sp.add_argument("--zeros-count", type=int, default=zeros_default)
    sp.set_defaults(handler=_cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        tol_default = _env_default("RGAS_TOL", 1e-8, float, "a number")
        zeros_default = _env_default("RGAS_ZEROS", 100, int, "an integer")
    except DomainError as exc:
        print(f"rgas: {exc}", file=sys.stderr)
        return 2
    try:
        args = _build_parser(tol_default, zeros_default).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = getattr(args, "tolerance", _TOL_RANGE[0])
        if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
            raise DomainError(
                f"tolerance {tol:g} outside the supported range "
                f"[{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}]"
            )
        if getattr(args, "zeros_count", 1) is not None and getattr(args, "zeros_count", 1) < 1:
            raise DomainError("zeros count must be >= 1")
        return args.handler(args)
    except (DomainError, TableFormatError, HagedornError, OSError, UnicodeDecodeError) as exc:
        print(f"rgas: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConvergenceError, MissedZeroError, PoleError) as exc:
        print(f"rgas: numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
