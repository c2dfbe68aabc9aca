"""Command-line interface: classification, witness and state emission,
detection scans, certificates, structural physical approximation, figure
data, and angle sweeps.

Each command returns its (inputs, results), or CSV text, and `main` alone
writes the single JSON record

    {"schema_version": "1", "command": ..., "inputs": ..., "results": ...}

to stdout (or --output PATH).  Matrix entries are nested rows of [re, im]
pairs, except when the map parameters are exact rationals, in which case
entries are emitted as "p/q" strings; `witness` and `detect` also take
--format csv.  Each subcommand takes only the options it reads.  Any failure,
a usage error (such as an option the subcommand does not take), invalid input,
float overflow or an unwritable --output path or stdout, exits with status 2,
nothing on stdout and one `error:` line on stderr.

Only the commands that run a see-saw, witness with JSON output and sweep
--what rank, load numpy, with oracles and linalg, on first access to the
package's names; the see-saw reads the numpy witness built from its form,
so neither loads witnesses.  The rest start without numpy.  Every
printed matrix is written from the numpy-free forms module: its 9x9 rows,
the same floats the library's arrays hold, or its exact entries.  spa,
certify --tilde, witness --format csv and sweep --what witness print those
rows with least eigenvalues that forms gives in closed form or certifies
from W~'s integer cubic; they import forms when they run, as witness JSON
does for its least eigenvalue.  A witness's trace is printed as the exact
1.0.  The other commands, detect with every --kind and sweep --what pstar
of both families among them, print geometry's scalar formulas only.  One
guard in `main` turns numpy's float overflow, invalid and divide warnings,
like Python's OverflowError, into the exit 2.  The console entry point ends
the process with os._exit once stdout and stderr are flushed, skipping the
interpreter's teardown; `main` called in-process returns as usual.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from typing import Optional

import qutritwit

from .geometry import (
    MapParams,
    classify,
    critical_p,
    detection_value,
    detection_value_exact,
    detects_rho_family,
    dual,
    improper_coeffs,
    indecomposability_certificate,
    on_ellipse,
    slice_params,
    so2_coeffs,
)

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "QUTRITWIT_SEED"
DEFAULT_SEED = 7
DEFAULT_RESTARTS = 200

# --kind -> the kind of its witness form.
_KINDS = {"standard": "standard", "tilde": "tilde", "u": "u_conjugated"}

# --improper -> (family name, angle -> parameters, --kind of its witness).
_FAMILIES = {
    False: ("proper", so2_coeffs, "standard"),
    True: ("improper", improper_coeffs, "tilde"),
}


def _linspace(lo: float, hi: float, n: int, endpoint: bool = True) -> list[float]:
    """n points from lo to hi, bit for bit those of np.linspace(lo, hi, n, endpoint=endpoint).

    The list is allocated whole before it is filled, so a count the address
    space cannot hold fails at once with MemoryError, as numpy's array does.
    """
    try:
        grid = [0.0] * n
    except OverflowError:  # n beyond an index: no list can hold it
        raise MemoryError from None
    div = n - 1 if endpoint else n
    delta = hi - lo
    step = delta / div if div > 0 else delta  # no interval to divide: numpy scales k = 0 by delta
    subnormal = step == 0 and div > 0  # delta / div underflows: numpy divides k by div first
    for k in range(n):
        grid[k] = (k / div * delta if subnormal else k * step) + lo
    if endpoint and n > 1:
        grid[-1] = hi
    return grid


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {text!r}") from exc


def _encode_number(x) -> object:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and math.isinf(x):
        return None
    return x


def _float_or_none(x) -> Optional[float]:
    """x rounded to a float, or None (JSON null) where it is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _encode_params(p: MapParams) -> dict:
    return {k: _encode_number(v) for k, v in zip("abc", p.astuple())}


def _encode_interval(interval: Optional[tuple[float, float]]):
    if interval is None:
        return None
    lo, hi = interval
    return [_encode_number(lo), _encode_number(hi)]


def _resolve_params(args) -> tuple[MapParams, dict]:
    """Build MapParams from positional (a b c), --bc, or --alpha input."""
    given = [args.params is not None and len(args.params) > 0, args.bc is not None, args.alpha is not None]
    if sum(given) != 1:
        raise ValueError("provide exactly one of: positional a b c, --bc B C, --alpha ALPHA")
    if args.alpha is None and (args.improper or args.degrees):
        raise ValueError("--improper and --degrees apply only to --alpha ALPHA")
    if args.params:
        if len(args.params) != 3:
            raise ValueError("positional parameters must be exactly three numbers: a b c")
        p = MapParams(*(_parse_number(t) for t in args.params))
        return p, _encode_params(p)
    if args.bc is not None:
        b, c = (_parse_number(t) for t in args.bc)
        return slice_params(b, c), {"b": _encode_number(b), "c": _encode_number(c)}
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    return _FAMILIES[args.improper][1](alpha), {"alpha": alpha, "improper": args.improper}


def _seesaw_config(args, runs: bool):
    """The SeeSawConfig, defaults of --seed and --restarts included; None for a run without one.

    Both settings are checked before the oracles module, and numpy, load.
    """
    if not runs:
        given = [f"--{name}" for name in ("seed", "restarts") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} not read: only witness (JSON) and sweep --what rank run a see-saw")
        return None
    if args.restarts is None:
        args.restarts = DEFAULT_RESTARTS  # kept on args: the out-of-memory message names it
    if args.restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    # The see-saw's first array holds restarts x 3 doubles; numpy refuses one the address space cannot hold.
    if args.restarts * 3 * 8 > sys.maxsize:
        raise ValueError(f"--restarts {args.restarts} is too large: the see-saw arrays exceed the address space")
    seed = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)) if args.seed is None else args.seed
    try:
        seed = int(seed)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"{SEED_ENV_VAR if args.seed is None else '--seed'} must be non-negative, got {seed}")
    return qutritwit.SeeSawConfig(restarts=args.restarts, rng_seed=seed)


def _print(text: str, stream) -> Optional[OSError]:
    """Print text to stream; if that fails, point the stream at devnull, so the
    flush at exit cannot fail a second time, and return the error."""
    try:
        print(text, file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output!r}: {exc.strerror}") from None
    else:
        exc = _print(text, sys.stdout)
        if exc is not None:
            raise ValueError(f"cannot write stdout: {exc.strerror}")


def _fail(message: str) -> int:
    """The exit status 2, after one `error:` line on stderr if stderr can take it."""
    _print(f"error: {message}", sys.stderr)
    return 2


def _write(rows: list[list[float]], csv: bool = False):
    """Rows of floats (forms.dense) as CSV text with 17 significant digits, or as JSON's
    [re, im] pairs: every matrix written here is real."""
    if csv:
        return "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)
    return [[[x, 0.0] for x in row] for row in rows]


def _witness_rows(p: MapParams, kind: str, csv: bool = False):
    """The float witness of a form kind at p, written by _write."""
    from . import forms

    return _write(forms.dense(*forms.witness_form(p, kind)), csv)


def _witness_array(p: MapParams, kind: str):
    """The float witness of a form kind at p as the numpy matrix a see-saw reads: witness_matrix's."""
    from . import forms, linalg

    return linalg.structured(*forms.witness_form(p, kind))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, dict]:
    p, inputs = _resolve_params(args)
    cls = classify(p)
    slice_ok = p.on_slice()
    results = {
        "params": _encode_params(p),
        "positivity": cls.positivity.value,
        "decomposability": cls.decomposability.value,
        "on_slice": slice_ok,
        "on_ellipse": on_ellipse(p) if slice_ok else None,
        "dual": _encode_params(dual(p)),
        "detection_interval": _encode_interval(detects_rho_family(p)) if slice_ok else None,
    }
    return inputs, results


def _cmd_witness(args) -> tuple[dict, dict] | str:
    p, inputs = _resolve_params(args)
    inputs["kind"] = args.kind
    kind = _KINDS[args.kind]
    cfg = _seesaw_config(args, runs=args.format == "json")
    if cfg is None:
        return _witness_rows(p, kind, csv=True)
    from . import forms

    least = forms.witness_spectrum(p, kind)
    results = {
        "params": _encode_params(p),
        "kind": kind,
        "matrix": forms.exact_witness_entries(p, kind) if p.is_exact else _witness_rows(p, kind),
        "exact": p.is_exact,
        "trace": 1.0,  # exact: each row table is a Latin square, so the diagonal sums to t = 3(A+B+C)
        "min_eigenvalue": least,
        "block_positivity_estimate": qutritwit.min_product_expectation(_witness_array(p, kind), cfg).value,
        "seesaw": {"restarts": cfg.restarts, "seed": cfg.rng_seed},
    }
    return inputs, results


def _cmd_detect(args) -> tuple[dict, dict] | str:
    p, inputs = _resolve_params(args)
    try:
        lo, hi, count = float(args.eps_grid[0]), float(args.eps_grid[1]), int(args.eps_grid[2])
        valid = 0 < lo < hi < math.inf and 1 / lo < math.inf and count >= 2  # each eps in rho_eps's domain
    except ValueError:
        valid = False
    if not valid:
        raise ValueError("--eps-grid requires 0 < LO < HI < inf, 1/LO < inf and N >= 2")
    inputs["kind"] = args.kind
    inputs["eps_grid"] = [lo, hi, count]
    grid = _linspace(lo, hi, count)
    kind = _KINDS[args.kind]
    values = [detection_value(p, e, kind) for e in grid]
    if args.format == "csv":
        return "\n".join(["eps,value"] + [f"{e:.17g},{v:.17g}" for e, v in zip(grid, values)])
    results = {
        "params": _encode_params(p),
        "kind": kind,
        "eps": grid,
        "values": values,
        "detection_interval": _encode_interval(detects_rho_family(p)) if args.kind == "standard" else None,
    }
    return inputs, results


def _cmd_spa(args) -> tuple[dict, dict]:
    from . import forms

    p, inputs = _resolve_params(args)
    star, state, certificate = forms.spa_form(p)
    results = {
        "params": _encode_params(p),
        "p_star": star,
        "region": certificate is not None,
        "separable_certified": certificate is not None,
        "state": _write(forms.dense(*state)),
        "state_min_eigenvalue": forms.spa_min_eigenvalue(state),
        "components": None,
    }
    if certificate is not None:
        scale, sigma_d = certificate
        results["components"] = {
            **{f"sigma_{i}{j}": _write(forms.dense(*forms.sigma_pair_form(i, j))) for i, j in ((1, 2), (1, 3), (2, 3))},
            "sigma_d": _write(forms.dense(sigma_d)),
            "scale": scale,
        }
    return inputs, results


def _cmd_certify(args) -> tuple[dict, dict]:
    p, inputs = _resolve_params(args)
    if args.tilde == args.indecomposable:
        raise ValueError("choose exactly one of --tilde or --indecomposable")
    if args.tilde:
        from . import forms

        P, Q = (forms.dense(*form) for form in forms.tilde_form(p))
        W = forms.dense(*forms.witness_form(p, "tilde"))
        min_p, min_q = forms.tilde_min_eigenvalues(p)
        results = {
            "params": _encode_params(p),
            "certificate": "decomposition",
            "P": _write(P),
            "Q": _write(Q),
            "scale": forms.TILDE_SCALE,
            "min_eig_P": min_p,
            "min_eig_Q": min_q,
            "reconstruction_residual": forms.reconstruction_residual(P, Q, W),
        }
    else:
        eps, value = indecomposability_certificate(p) or (None, None)
        results = {
            "params": _encode_params(p),
            "certificate": None if eps is None else "ppt_state",
            "eps": None if eps is None else _float_or_none(eps),
            "eps_exact": str(eps) if isinstance(eps, Fraction) else None,
            "value": value,
            "value_exact": str(detection_value_exact(p, eps)) if eps is not None and p.is_exact else None,
        }
    return inputs, results


def _cmd_figure(args) -> tuple[dict, dict]:
    n = args.resolution
    if n < 8:
        raise ValueError("--resolution must be at least 8")
    # Starting at the reduction map (1, 1), the angle pi of the proper family.
    ellipse = [so2_coeffs(t + math.pi) for t in _linspace(0.0, 2 * math.pi, n, endpoint=False)]
    results = {
        "ellipse": [[p.b, p.c] for p in ellipse],
        "decomposable_line": [[0.0, 0.0], [1.0, 1.0]],
        "simplex": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
        "spa_lines": {
            "c_eq_1_minus_2b": [[0.0, 1.0], [0.5, 0.0]],
            "b_eq_1_minus_2c": [[1.0, 0.0], [0.0, 0.5]],
        },
        "special_points": {
            "i": [1.0, 0.0],
            "ii": [0.0, 1.0],
            "iii": [1.0, 1.0],
            "iv": [1.0 / 3.0, 1.0 / 3.0],
            "v": [0.0, 0.0],
        },
    }
    return {"resolution": n}, results


def _cmd_sweep(args) -> tuple[dict, dict]:
    n = args.alpha_grid
    if n < 1:
        raise ValueError("--alpha-grid must be positive")
    family, coeffs, kind = _FAMILIES[args.improper]
    cfg = _seesaw_config(args, runs=args.what == "rank")
    if cfg is not None:
        _print("note: span-rank sweep runs a see-saw search per angle (slow)", sys.stderr)
    rows = []
    for alpha in _linspace(0.0, 2 * math.pi, n, endpoint=False):
        p = coeffs(alpha)
        a, b, c = p.asfloats()
        row = {"alpha": alpha, "a": a, "b": b, "c": c, "sum": math.fsum((a, b, c))}
        if args.what == "pstar":  # p* of the family's own witness: W, or W~ for the improper family
            row["p_star"] = critical_p(p, kind)
        elif args.what == "witness":
            from . import forms

            row["matrix"] = _witness_rows(p, kind)
            row["trace"] = 1.0  # exact, as in _cmd_witness
            row["min_eigenvalue"] = forms.witness_spectrum(p, kind)
        elif args.what == "rank":
            zeros = qutritwit.zero_product_vectors(_witness_array(p, kind), cfg)
            row["zero_count"] = len(zeros)
            row["span_rank"] = qutritwit.span_rank(zeros)
        rows.append(row)
    return {"alpha_grid": n, "family": family, "what": args.what}, {"rows": rows}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, so main reports it like any other invalid input.

    Any token that parses as a float is a value, never an option: argparse alone reads
    -1e-3, -1E2 and -inf as unknown options.  No option here looks like a number.
    """

    def error(self, message):
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    params = _Parser(add_help=False)
    params.add_argument("params", nargs="*", help="map parameters a b c (numbers or fractions like 2/3)")
    params.add_argument("--bc", nargs=2, metavar=("B", "C"), default=None, help="parameters on the plane a+b+c = 2")
    params.add_argument("--alpha", type=float, default=None, help="rotation angle in radians")
    params.add_argument("--improper", action="store_true", help="use the improper-rotation family for --alpha")
    params.add_argument("--degrees", action="store_true", help="interpret --alpha in degrees")

    matrix = _Parser(add_help=False)
    matrix.add_argument("--kind", choices=_KINDS, default="standard")
    matrix.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    seesaw = _Parser(add_help=False)
    seesaw.add_argument("--seed", type=int, default=None, help=f"see-saw RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    seesaw.add_argument("--restarts", type=int, default=None, help=f"see-saw restarts (default: {DEFAULT_RESTARTS})")

    parser = _Parser(
        prog="qutritwit",
        description="Two-qutrit entanglement witnesses: construction, classification, certificates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, parents, help):
        cmd = sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        cmd.add_argument("--output", type=str, default=None, help="write output to a file instead of stdout")
        cmd.set_defaults(run=run)
        return cmd

    command("classify", _cmd_classify, [params], "positivity class, decomposability, duality")

    command("witness", _cmd_witness, [params, matrix, seesaw], "emit a witness matrix with diagnostics")

    d = command("detect", _cmd_detect, [params, matrix], "detection values over an eps grid")
    d.add_argument("--eps-grid", nargs=3, metavar=("LO", "HI", "N"), default=("0.1", "2.0", "20"))

    command("spa", _cmd_spa, [params], "structural physical approximation")

    cert = command("certify", _cmd_certify, [params], "decomposability or indecomposability certificate")
    cert.add_argument("--tilde", action="store_true", help="P + Q^G certificate for the improper-family witness")
    cert.add_argument("--indecomposable", action="store_true", help="PPT probe state with negative expectation")

    fig = command("figure", _cmd_figure, [], "polylines and special points of the parameter-plane figure")
    fig.add_argument("--resolution", type=int, default=360, help="ellipse polyline vertices (>= 8)")

    sw = command("sweep", _cmd_sweep, [seesaw], "tabulate quantities over a rotation-angle grid")
    sw.add_argument("--alpha-grid", type=int, default=36, help="number of angles on [0, 2 pi)")
    sw.add_argument("--improper", action="store_true", help="sweep the improper-rotation family")
    sw.add_argument("--what", choices=("coeffs", "witness", "pstar", "rank"), default="coeffs")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's float overflow, invalid and divide
            out = args.run(args)
        if isinstance(out, tuple):
            record = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": out[0], "results": out[1]}
            out = json.dumps(record, indent=2, allow_nan=False)
        _emit(args, out)
        return 0
    except (OverflowError, RuntimeWarning) as exc:
        return _fail(f"a value overflows a float ({exc}); the input is too large or too small")
    except ValueError as exc:
        return _fail(str(exc))
    except MemoryError:
        flags = {"detect": ["--eps-grid"], "figure": ["--resolution"], "sweep": ["--alpha-grid"]}.get(args.command, [])
        if getattr(args, "restarts", None) is not None:  # set once a see-saw runs
            flags.append(f"--restarts {args.restarts}")
        return _fail(f"out of memory: {' or '.join(flags) or 'the input'} is too large")


def console_main() -> None:
    """Run main, flush both streams and end the process without the interpreter's
    teardown.  A stdout that cannot take its buffered output fails a run that succeeded;
    stderr keeps the run's status.  An exception that escapes main propagates as usual."""
    status = main()
    for stream, failed in ((sys.stdout, 2), (sys.stderr, 0)):
        try:
            if stream is not None:  # None when the process started without the stream
                stream.flush()
        except OSError:
            status = status or failed
    os._exit(status)


if __name__ == "__main__":
    console_main()
