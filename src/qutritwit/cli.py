"""Command-line interface: classification, witness and state emission,
detection scans, certificates, structural physical approximation, figure
data, and angle sweeps.

Each command returns its (inputs, results), or CSV text, and `main` alone
writes the single JSON record

    {"schema_version": "1", "command": ..., "inputs": ..., "results": ...}

to stdout (or --output PATH).  Matrix entries are nested rows of [re, im]
pairs, except when the map parameters are exact rationals, in which case
entries are emitted as "p/q" strings; `witness` and `detect` also take
--format csv.  Any failure, a usage error, invalid input, float overflow or
an unwritable --output path, exits with status 2, nothing on stdout and one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .maps import (
    MapParams,
    classify,
    dual,
    improper_coeffs,
    on_ellipse,
    slice_params,
    so2_coeffs,
)
from .oracles import (
    SeeSawConfig,
    indecomposability_certificate,
    min_product_expectation,
    span_rank,
    zero_product_vectors,
)
from .spa import critical_p, spa_state
from .states import detects_rho_family, rho_eps
from .witnesses import (
    WitnessMatrix,
    decompose_tilde,
    exact_witness_entries,
    matrix_entries,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
)

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "QUTRITWIT_SEED"
DEFAULT_SEED = 7

# --kind -> witness builder.
_KINDS = {"standard": witness_matrix, "tilde": witness_tilde_matrix, "u": witness_u}

# --improper -> (family name, angle -> parameters, witness builder).
_FAMILIES = {
    False: ("proper", so2_coeffs, witness_matrix),
    True: ("improper", improper_coeffs, witness_tilde_matrix),
}


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None


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
    if args.params:
        if len(args.params) != 3:
            raise ValueError("positional parameters must be exactly three numbers: a b c")
        a, b, c = (_parse_number(t) for t in args.params)
        return MapParams(a, b, c), {"a": _encode_number(a), "b": _encode_number(b), "c": _encode_number(c)}
    if args.bc is not None:
        b, c = (_parse_number(t) for t in args.bc)
        return slice_params(b, c), {"b": _encode_number(b), "c": _encode_number(c)}
    alpha = float(args.alpha)
    if getattr(args, "degrees", False):
        alpha = math.radians(alpha)
    improper = bool(getattr(args, "improper", False))
    return _FAMILIES[improper][1](alpha), {"alpha": alpha, "improper": improper}


def _seesaw_config(args) -> SeeSawConfig:
    # The see-saw's first array holds restarts x 3 doubles; numpy refuses one the address space cannot hold.
    if args.restarts * 3 * 8 > sys.maxsize:
        raise ValueError(f"--restarts {args.restarts} is too large: the see-saw arrays exceed the address space")
    return SeeSawConfig(
        restarts=args.restarts,
        rng_seed=args.seed if args.seed is not None else _default_seed(),
    )


def _matrix_payload(W: WitnessMatrix) -> tuple[object, bool]:
    if W.params is not None and W.params.is_exact:
        return exact_witness_entries(W.params, W.kind), True
    return matrix_entries(W.matrix), False


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output!r}: {exc.strerror}") from None
    else:
        print(text)


def _csv_matrix(M) -> str:
    rows = []
    for row in linalg.as_matrix(M):
        cells = []
        for z in row:
            if abs(z.imag) > 0:
                cells.append(f"{z.real:.17g}{z.imag:+.17g}j")
            else:
                cells.append(f"{z.real:.17g}")
        rows.append(",".join(cells))
    return "\n".join(rows)


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
        "on_ellipse": on_ellipse(p, tol=args.tol) if slice_ok else None,
        "dual": _encode_params(dual(p)),
        "detection_interval": _encode_interval(detects_rho_family(p)) if slice_ok else None,
    }
    return inputs, results


def _cmd_witness(args) -> tuple[dict, dict] | str:
    p, inputs = _resolve_params(args)
    inputs["kind"] = args.kind
    W = _KINDS[args.kind](p)
    if args.format == "csv":
        return _csv_matrix(W.matrix)
    cfg = _seesaw_config(args)
    entries, exact = _matrix_payload(W)
    results = {
        "params": _encode_params(p),
        "kind": W.kind,
        "matrix": entries,
        "exact": exact,
        "trace": W.trace(),
        "min_eigenvalue": W.min_eigenvalue(),
        "block_positivity_estimate": min_product_expectation(W.matrix, cfg).value,
        "seesaw": {"restarts": cfg.restarts, "seed": cfg.rng_seed},
    }
    return inputs, results


def _cmd_detect(args) -> tuple[dict, dict] | str:
    p, inputs = _resolve_params(args)
    try:
        lo, hi, count = float(args.eps_grid[0]), float(args.eps_grid[1]), int(args.eps_grid[2])
        valid = 0 < lo < hi < math.inf and count >= 2
    except ValueError:
        valid = False
    if not valid:
        raise ValueError("--eps-grid requires 0 < LO < HI < inf and N >= 2")
    inputs["kind"] = args.kind
    inputs["eps_grid"] = [lo, hi, count]
    grid = np.linspace(lo, hi, count)
    W = _KINDS[args.kind](p)
    values = [float(linalg.trace_pair(rho_eps(e).matrix, W.matrix).real) for e in grid]
    if args.format == "csv":
        return "\n".join(["eps,value"] + [f"{e:.17g},{v:.17g}" for e, v in zip(grid, values)])
    results = {
        "params": _encode_params(p),
        "kind": W.kind,
        "eps": [float(e) for e in grid],
        "values": values,
        "detection_interval": _encode_interval(detects_rho_family(p)) if args.kind == "standard" else None,
    }
    return inputs, results


def _cmd_spa(args) -> tuple[dict, dict]:
    p, inputs = _resolve_params(args)
    res = spa_state(p)
    results = {
        "params": _encode_params(p),
        "p_star": res.p_star,
        "region": res.separable_certified,
        "separable_certified": res.separable_certified,
        "state": matrix_entries(res.state.matrix),
        "state_min_eigenvalue": linalg.min_eigenvalue(res.state.matrix),
    }
    if res.components is not None:
        comp = res.components
        results["components"] = {
            "sigma_12": matrix_entries(comp.sigma_12.matrix),
            "sigma_13": matrix_entries(comp.sigma_13.matrix),
            "sigma_23": matrix_entries(comp.sigma_23.matrix),
            "sigma_d": matrix_entries(comp.sigma_d.matrix),
            "scale": comp.scale,
        }
    else:
        results["components"] = None
    return inputs, results


def _cmd_certify(args) -> tuple[dict, dict]:
    p, inputs = _resolve_params(args)
    if args.tilde == args.indecomposable:
        raise ValueError("choose exactly one of --tilde or --indecomposable")
    if args.tilde:
        cert = decompose_tilde(p)
        W = witness_tilde_matrix(p)
        results = {
            "params": _encode_params(p),
            "certificate": "decomposition",
            "P": matrix_entries(cert.P),
            "Q": matrix_entries(cert.Q),
            "scale": cert.scale,
            "min_eig_P": linalg.min_eigenvalue(cert.P),
            "min_eig_Q": linalg.min_eigenvalue(cert.Q),
            "reconstruction_residual": cert.residual(W),
        }
    else:
        found = indecomposability_certificate(p)
        results = {
            "params": _encode_params(p),
            "certificate": "ppt_state" if found else None,
            "eps": found[0] if found else None,
            "value": found[1] if found else None,
        }
    return inputs, results


def _cmd_figure(args) -> tuple[dict, dict]:
    n = args.resolution
    if n < 8:
        raise ValueError("--resolution must be at least 8")
    ts = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    ellipse = []
    for t in ts:
        x = 4.0 / 3.0 + (2.0 / 3.0) * math.cos(t)
        y = (2.0 / math.sqrt(3.0)) * math.sin(t)
        ellipse.append([(x + y) / 2.0, (x - y) / 2.0])
    results = {
        "ellipse": ellipse,
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
    family, coeffs, build = _FAMILIES[args.improper]
    if args.what == "rank":
        cfg = _seesaw_config(args)
        print("note: span-rank sweep runs a see-saw search per angle (slow)", file=sys.stderr)
    rows = []
    for alpha in np.linspace(0.0, 2 * math.pi, n, endpoint=False):
        p = coeffs(float(alpha))
        a, b, c = p.asfloats()
        row = {"alpha": float(alpha), "a": a, "b": b, "c": c, "sum": a + b + c}
        if args.what == "witness":
            W = build(p)
            row["matrix"] = matrix_entries(W.matrix)
            row["trace"] = W.trace()
            row["min_eigenvalue"] = W.min_eigenvalue()
        elif args.what == "pstar":
            row["p_star"] = critical_p(p)
        elif args.what == "rank":
            W = build(p)
            zeros = zero_product_vectors(W.matrix, cfg)
            row["zero_count"] = len(zeros)
            row["span_rank"] = span_rank(zeros)
        rows.append(row)
    return {"alpha_grid": n, "family": family, "what": args.what}, {"rows": rows}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, so main reports it like any other invalid input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance for reported checks")
    common.add_argument("--seed", type=int, default=None, help=f"see-saw RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    common.add_argument("--restarts", type=int, default=200, help="see-saw restarts")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    common.add_argument("--output", type=str, default=None, help="write output to a file instead of stdout")

    params = _Parser(add_help=False)
    params.add_argument("params", nargs="*", help="map parameters a b c (numbers or fractions like 2/3)")
    params.add_argument("--bc", nargs=2, metavar=("B", "C"), default=None, help="parameters on the plane a+b+c = 2")
    params.add_argument("--alpha", type=float, default=None, help="rotation angle in radians")
    params.add_argument("--improper", action="store_true", help="use the improper-rotation family for --alpha")
    params.add_argument("--degrees", action="store_true", help="interpret --alpha in degrees")

    parser = _Parser(
        prog="qutritwit",
        description="Two-qutrit entanglement witnesses: construction, classification, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[common, params], help="positivity class, decomposability, duality")

    w = sub.add_parser("witness", parents=[common, params], help="emit a witness matrix with diagnostics")
    w.add_argument("--kind", choices=_KINDS, default="standard")

    d = sub.add_parser("detect", parents=[common, params], help="detection values over an eps grid")
    d.add_argument("--kind", choices=_KINDS, default="standard")
    d.add_argument("--eps-grid", nargs=3, metavar=("LO", "HI", "N"), default=("0.1", "2.0", "20"))

    sub.add_parser("spa", parents=[common, params], help="structural physical approximation")

    cert = sub.add_parser("certify", parents=[common, params], help="decomposability or indecomposability certificate")
    cert.add_argument("--tilde", action="store_true", help="P + Q^G certificate for the improper-family witness")
    cert.add_argument("--indecomposable", action="store_true", help="PPT probe state with negative expectation")

    fig = sub.add_parser("figure", parents=[common], help="polylines and special points of the parameter-plane figure")
    fig.add_argument("--resolution", type=int, default=360, help="ellipse polyline vertices (>= 8)")

    sw = sub.add_parser("sweep", parents=[common], help="tabulate quantities over a rotation-angle grid")
    sw.add_argument("--alpha-grid", type=int, default=36, help="number of angles on [0, 2 pi)")
    sw.add_argument("--improper", action="store_true", help="sweep the improper-rotation family")
    sw.add_argument("--what", choices=("coeffs", "witness", "pstar", "rank"), default="coeffs")

    return parser


_DISPATCH = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "detect": _cmd_detect,
    "spa": _cmd_spa,
    "certify": _cmd_certify,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
        if args.format == "csv" and args.command not in ("witness", "detect"):
            raise ValueError("--format csv is supported only by witness and detect")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _DISPATCH[args.command](args)
        if isinstance(out, tuple):
            record = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": out[0], "results": out[1]}
            out = json.dumps(record, indent=2, allow_nan=False)
        _emit(args, out)
        return 0
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: a value overflows a float ({exc}); the input is too large or too small", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        flags = {"detect": ["--eps-grid"], "figure": ["--resolution"], "sweep": ["--alpha-grid"]}.get(args.command, [])
        if args.command == "witness" or getattr(args, "what", None) == "rank":
            flags.append(f"--restarts {args.restarts}")
        print(f"error: out of memory: {' or '.join(flags) or 'the input'} is too large", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
