"""Command-line front end for the spectral-to-geometric bound pipelines.

Subcommands
-----------
spectrum   emit a catalog model's exact truncated spectrum as JSON
eig-ball   lowest Dirichlet eigenvalue of a geodesic ball in the constant-
           curvature model
weyl       dimension/volume fit from a spectrum file
diameter   certified diameter bound from a spectrum and curvature lower bound
isotropy   diameter bound plus isotropy-order cap
singular   isotropy pipeline plus the isolated-singular-point cap
constants  the (alpha, ell, r) separation constants for given n, kappa, D, v
verify     soundness sweep of every pipeline over the model catalog

Every report embeds the tool version and the full effective configuration,
and is emitted as JSON (stdout or --out).  Exit codes: 0 success; 1 malformed
input file or an --out path that cannot be written; 2 precondition or
certification failure, with a stage-named diagnostic on stderr.  All output
is deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .bounds import singular_point_cap, spectral_isotropy_bound, spectral_singular_point_bound
from .dirichlet import lowest_dirichlet_eigenvalue
from .errors import DomainError, OrbispecError
from .modelspectra import Spectrum, catalog_model, model_catalog
from .spaceform import SpaceForm
from .weyl import estimate_dimension, weyl_fit

__all__ = ["main", "build_parser"]


class MalformedInputError(Exception):
    """An input file failed to parse or validate; maps to exit code 1."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInputError(f"{path}: expected a JSON object")
    return payload


def _load_spectrum(path: str) -> Spectrum:
    payload = _load_json(path)
    if "spectrum" in payload and isinstance(payload["spectrum"], dict):
        payload = payload["spectrum"]
    try:
        return Spectrum.from_dict(payload)
    except DomainError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


def _config(args: argparse.Namespace) -> dict:
    skip = {"handler", "out", "command"}
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the payload merged into the envelope.


def _cmd_spectrum(args: argparse.Namespace) -> dict:
    model = catalog_model(args.model)
    spec = model.spectrum(args.lambda_max)
    return {"model": args.model, "spectrum": spec.to_dict()}


def _cmd_eig_ball(args: argparse.Namespace) -> dict:
    sf = SpaceForm(args.n, args.kappa)
    value = lowest_dirichlet_eigenvalue(sf, args.r)
    return {"eigenvalue": value, "eigenvalue_5dp": float(f"{value:.5f}")}


def _cmd_weyl(args: argparse.Namespace) -> dict:
    spec = _load_spectrum(args.spectrum)
    return {"fit": weyl_fit(spec).to_dict()}


def _bound_report(args: argparse.Namespace, pipeline):
    spec = _load_spectrum(args.spectrum)
    return pipeline(spec, args.kappa, n=args.n, v=args.volume)


def _cmd_diameter(args: argparse.Namespace) -> dict:
    report = _bound_report(args, spectral_isotropy_bound)
    return {
        "n": report.n,
        "volume": report.volume,
        "source": report.source,
        "diameter_bound": report.diameter_bound,
        "r": report.r_used,
        "rho": report.rho,
    }


def _cmd_isotropy(args: argparse.Namespace) -> dict:
    return {"report": _bound_report(args, spectral_isotropy_bound).to_dict()}


def _cmd_singular(args: argparse.Namespace) -> dict:
    return {"report": _bound_report(args, spectral_singular_point_bound).to_dict()}


def _cmd_constants(args: argparse.Namespace) -> dict:
    _, constants = singular_point_cap(args.n, args.kappa, args.diameter, args.volume)
    return constants


_VERIFY_TRUNCATIONS = {
    # (kind, dimension) -> (full, quick) spectrum truncations
    ("round_sphere", 2): (10100.0, 1640.0),
    ("sphere_quotient", 2): (10100.0, 1640.0),
    ("round_sphere", 3): (4032.0, 899.0),
    ("sphere_quotient", 3): (4032.0, 899.0),
    ("flat_torus", 2): (64000.0, 8000.0),
    ("torus_quotient", 2): (64000.0, 8000.0),
}


def _verify_row(model, quick: bool) -> dict:
    full, fast = _VERIFY_TRUNCATIONS[(model.kind, model.dimension)]
    spec = model.spectrum(fast if quick else full)
    n, kappa, v = model.dimension, model.curvature_lower_bound, model.volume
    true_count = model.isolated_singular_count
    pipeline = spectral_singular_point_bound if true_count > 0 else spectral_isotropy_bound
    report = pipeline(spec, kappa, n=n, v=v)
    singular = None
    if report.singular_cap is not None:
        singular = {
            "true": true_count,
            "cap": report.singular_cap,
            "sound": bool(report.singular_cap >= true_count),
        }
    dim_est, dim_diag = estimate_dimension(spec)
    return {
        "model": model.model_id,
        "truncation": spec.truncation,
        "diameter": {
            "true": model.diameter,
            "bound": report.diameter_bound,
            "r": report.r_used,
            "sound": bool(report.diameter_bound >= model.diameter),
        },
        "isotropy": {
            "true": model.max_isotropy_order,
            "cap": report.isotropy_cap,
            "sound": bool(report.isotropy_cap >= model.max_isotropy_order),
        },
        "singular": singular,
        "weyl": {
            "dimension": dim_est,
            "dimension_ok": bool(dim_est == model.dimension),
            "dimension_diagnostic": dim_diag,
        },
    }


def _cmd_verify(args: argparse.Namespace) -> dict:
    catalog = model_catalog()
    if args.models is not None:
        wanted = [tok.strip() for tok in args.models.split(",") if tok.strip()]
        if not wanted:
            raise DomainError(f"--models {args.models!r} selects no model")
        known = {m.model_id for m in catalog}
        for tok in wanted:
            if tok not in known:
                raise DomainError(f"unknown model {tok!r} in --models")
        catalog = [m for m in catalog if m.model_id in wanted]
    rows = [_verify_row(model, args.quick) for model in catalog]
    all_sound = all(
        row["diameter"]["sound"]
        and row["isotropy"]["sound"]
        and (row["singular"] is None or row["singular"]["sound"])
        and row["weyl"]["dimension_ok"]
        for row in rows
    )
    return {
        "models": rows,
        "all_sound": bool(all_sound),
        "_exit_code": 0 if all_sound else 2,
    }


# ---------------------------------------------------------------------------
# Parser construction and entry point.


def _add_spectrum_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spectrum", required=True, help="spectrum JSON file")


def _add_bound_args(sub: argparse.ArgumentParser) -> None:
    _add_spectrum_arg(sub)
    sub.add_argument("--kappa", type=float, required=True, help="curvature lower bound")
    sub.add_argument("--n", type=int, default=None, help="dimension (default: estimated)")
    sub.add_argument("--volume", type=float, default=None, help="volume (default: estimated)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbispec",
        description="spectral-to-geometric bounds for closed orbifolds",
    )
    parser.add_argument("--version", action="version", version=f"orbispec {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    subs = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text, parents=[common])
        # Read -1e2, -inf and -nan as values: argparse takes only -1 and -1.5 on Python 3.11.
        sub._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)$", re.I)
        return sub

    p = add_parser("spectrum", "exact catalog spectrum to JSON")
    p.add_argument("--model", required=True, help="catalog model id (e.g. s2-mod-3)")
    p.add_argument("--lambda-max", type=float, required=True, help="spectrum truncation")
    p.set_defaults(handler=_cmd_spectrum)

    p = add_parser("eig-ball", "lowest Dirichlet eigenvalue of a model ball")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--kappa", type=float, required=True, help="curvature")
    p.add_argument("--r", type=float, required=True, help="ball radius")
    p.set_defaults(handler=_cmd_eig_ball)

    p = add_parser("weyl", "dimension/volume estimate from a spectrum")
    _add_spectrum_arg(p)
    p.set_defaults(handler=_cmd_weyl)

    p = add_parser("diameter", "certified diameter bound")
    _add_bound_args(p)
    p.set_defaults(handler=_cmd_diameter)

    p = add_parser("isotropy", "diameter bound + isotropy-order cap")
    _add_bound_args(p)
    p.set_defaults(handler=_cmd_isotropy)

    p = add_parser("singular", "isotropy pipeline + singular-point cap")
    _add_bound_args(p)
    p.set_defaults(handler=_cmd_singular)

    p = add_parser("constants", "alpha/ell/r separation constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--diameter", type=float, required=True)
    p.add_argument("--volume", type=float, required=True)
    p.set_defaults(handler=_cmd_constants)

    p = add_parser("verify", "soundness sweep over the model catalog")
    p.add_argument("--models", default=None, help="comma-separated model ids (default: all)")
    p.add_argument("--quick", action="store_true", help="smaller truncations")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(envelope: dict, out: str | None) -> None:
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except MalformedInputError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return 1
    except OrbispecError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return 2
    exit_code = int(payload.pop("_exit_code", 0))
    envelope = {
        "tool": "orbispec",
        "version": __version__,
        "command": args.command,
        "config": _config(args),
    }
    envelope.update(payload)
    try:
        _emit(envelope, args.out)
    except OSError as exc:
        print(f"error[output]: {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
