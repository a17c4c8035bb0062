"""Command line driver.

Instance sources are ``bundled:<name>`` or a path to a JSON file with the
same layout as the bundled data.  Reports are emitted as deterministic
JSON (byte-identical across runs for the same inputs) or as an indented
text rendering that additionally shows wall time.  Exit codes: 0 when the
requested report was produced, 2 for unusable input, 3 when a typed
analysis error stopped the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import QuasiAlgebraInstance, _as_complex_entry, validate_structure
from .bounded import (cone_membership, cone_witness_element, m_bounded_norm,
                      radical, weak_product)
from .bundled import bundle_names, load_bundle, parse_payload
from .errors import ParseError, QStarError
from .forms import FormFamily, validate_family
from .gns import reconstruction_defect
from .lp_model import holder_sup, lp_bounded_norm, weight_ascent_oracle
from .probes import DEFAULT_SEED, standard_probes
from .report import dumps
from .tolerances import DEFAULT_TOL
from .topology import (BoundedFormSet, compare_topologies, gamma, left_mult_bound,
                       p_lower, p_star, p_upper, ga_star_check)


def _load_source(source: str):
    if source.startswith("bundled:"):
        bundle = load_bundle(source.split(":", 1)[1])
        return bundle["instance"], bundle["families"], bundle["description"]
    path = Path(source)
    if not path.exists():
        raise ParseError(source, "no such file; use bundled:<name> or a JSON path")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(source, f"invalid JSON: {exc}") from None
    return parse_payload(payload, source)


def _pick_family(families: dict, name, source: str) -> FormFamily:
    if name:
        if name not in families:
            raise ParseError(source, f"no family named {name!r}; "
                                     f"available: {', '.join(sorted(families)) or 'none'}")
        return families[name]
    if len(families) == 1:
        return next(iter(families.values()))
    raise ParseError(source, "choose a family with --family; "
                             f"available: {', '.join(sorted(families)) or 'none'}")


def _parse_element(alg: QuasiAlgebraInstance, text: str):
    if text in ("e", "unit"):
        return alg.unit
    if text.startswith("basis:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(text, "basis index must be an integer") from None
        if not 0 <= k < alg.dim:
            raise ParseError(text, f"basis index out of range 0..{alg.dim - 1}")
        return alg.basis_element(k)
    if text.startswith("@"):
        path = Path(text[1:])
        if not path.exists():
            raise ParseError(text, "element file not found")
        raw = path.read_text()
    else:
        raw = text
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(text, f"element must be 'e', 'basis:k', JSON "
                               f"coefficients, or @file: {exc}") from None
    if not isinstance(data, list) or len(data) != alg.dim:
        raise ParseError(text, f"expected {alg.dim} coefficients")
    coeffs = np.array([_as_complex_entry(v, text, f"[{i}]")
                       for i, v in enumerate(data)], dtype=complex)
    return alg.element(coeffs)


def _tol(args):
    overrides = {}
    if getattr(args, "tol_psd", None) is not None:
        overrides["psd"] = args.tol_psd
    if getattr(args, "tol_rank", None) is not None:
        overrides["rank"] = args.tol_rank
    if getattr(args, "tol_weak", None) is not None:
        overrides["weak"] = args.tol_weak
    return DEFAULT_TOL.override(**overrides) if overrides else DEFAULT_TOL


def _at_depth(fam: FormFamily, args) -> FormFamily:
    """The family, rebuilt at the ``--twist-depth`` override if one is given."""
    depth = getattr(args, "twist_depth", None)
    return fam if depth is None else FormFamily(fam.seeds, fam.balanced, depth, fam.label)


def _load_family(args):
    inst, families, _ = _load_source(args.source)
    return inst, _at_depth(_pick_family(families, args.family, args.source), args)


def _csv_floats(text: str, what: str):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParseError(text, f"{what} must be comma-separated numbers") from None


def _csv_complex(text: str, what: str):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(complex(piece.replace("i", "j")))
        except ValueError:
            raise ParseError(text, f"{what} must be comma-separated numbers") from None
    return out


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args, tol):
    inst, families, desc = _load_source(args.source)
    report = validate_structure(inst, tol)
    return {"command": "validate", "source": args.source, "description": desc,
            "report": report.as_dict()}


def _cmd_forms(args, tol):
    inst, fam = _load_family(args)
    report = validate_family(fam, inst, tol)
    suff = fam.sufficiency(inst, tol)
    return {"command": "forms", "source": args.source, "family": fam.label,
            "report": report.as_dict(), "sufficiency": suff.as_dict()}


def _cmd_gns(args, tol):
    inst, fam = _load_family(args)
    ctx = fam.context(inst, tol)
    reps = dict(zip(ctx.dense_seeds, ctx.reps)) if ctx.dense_seeds else {}
    out = []
    for phi in fam.seeds:
        rep = reps.get(phi)
        if rep is None:
            out.append({"label": phi.label, "dense": False})
            continue
        out.append({
            "label": phi.label, "dense": True, "dim_H": rep.dim_H,
            "residual_lambda": rep.residual_lambda,
            "residual_rep": rep.residual_rep,
            "reconstruction_defect": reconstruction_defect(rep),
        })
    return {"command": "gns", "source": args.source, "family": fam.label,
            "representations": out}


def _cmd_cone(args, tol):
    inst, fam = _load_family(args)
    a = _parse_element(inst, args.element)
    report = cone_membership(a, fam, inst, tol)
    payload = {"command": "cone", "source": args.source, "family": fam.label,
               "element": args.element, "report": report.as_dict()}
    if not report.member and report.witness_coeffs is not None:
        w = cone_witness_element(report, inst)
        payload["witness_pairing"] = [float(report.witness_value.real),
                                      float(report.witness_value.imag)]
        payload["witness_norm"] = w.norm_frobenius()
    return payload


def _cmd_norm(args, tol):
    inst, fam = _load_family(args)
    a = _parse_element(inst, args.element)
    report = m_bounded_norm(a, fam, inst, tol)
    return {"command": "norm", "source": args.source, "family": fam.label,
            "element": args.element, "report": report.as_dict()}


def _cmd_weakprod(args, tol):
    inst, fam = _load_family(args)
    a = _parse_element(inst, args.left)
    b = _parse_element(inst, args.right)
    c, rep = weak_product(a, b, fam, inst, tol)
    return {"command": "weakprod", "source": args.source, "family": fam.label,
            "left": args.left, "right": args.right,
            "coeffs": [[float(z.real), float(z.imag)] for z in c.coeffs],
            "report": rep.as_dict()}


def _cmd_radical(args, tol):
    inst, fam = _load_family(args)
    report = radical(fam, inst, tol)
    return {"command": "radical", "source": args.source, "family": fam.label,
            "report": report.as_dict()}


def _cmd_topology(args, tol):
    inst, fam = _load_family(args)
    F = BoundedFormSet.from_family(fam, inst, tol)
    a = _parse_element(inst, args.element) if args.element else inst.unit
    probes = standard_probes(inst, count=args.probes, seed=args.seed)
    mult_bounds = [left_mult_bound(fam, inst.a0_basis_element(j), inst, tol)
                   for j in range(inst.a0_dim)]
    comparison = compare_topologies(F, "upper", F, "star", probes)
    return {
        "command": "topology", "source": args.source, "family": fam.label,
        "set_size": len(F), "gamma": gamma(F, inst),
        "element": args.element or "e",
        "seminorms": {"upper": p_upper(F, a), "lower": p_lower(F, a),
                      "star": p_star(F, a)},
        "subalgebra_mult_bounds": mult_bounds,
        "upper_vs_star": comparison,
    }


def _cmd_gastar(args, tol):
    inst, fam = _load_family(args)
    report = ga_star_check(fam, inst, tol)
    return {"command": "gastar", "source": args.source, "family": fam.label,
            "report": report.as_dict()}


def _cmd_lp(args, tol):
    k = args.points
    masses = _csv_floats(args.masses, "masses") if args.masses else [1.0 / k] * k
    if args.values:
        values = _csv_complex(args.values, "values")
    else:
        values = [float(i + 1) for i in range(k)]
    if len(masses) != k or len(values) != k:
        raise ParseError("lp", f"masses and values must have {k} entries")
    hs = holder_sup(values, args.exponent, masses)
    oracle = weight_ascent_oracle(values, args.exponent, masses, seed=args.seed)
    norm = lp_bounded_norm(values, args.exponent, masses, tol)
    return {
        "command": "lp", "points": k, "exponent": float(args.exponent),
        "masses": masses,
        "values": [[float(complex(v).real), float(complex(v).imag)] for v in values],
        "holder": {
            "sup": hs["sup"], "seminorm": hs["seminorm"],
            "attained": hs["attained"],
            "extremal_weight": [float(x) for x in hs["extremal_weight"]],
            "conjugate_index": hs["conjugate_index"],
            "weight_ball_norm": hs["weight_ball_norm"],
        },
        "ascent_oracle": {"sup_estimate": oracle["sup_estimate"],
                          "undershoots": oracle["sup_estimate"] <= hs["sup"] + 1e-9},
        "mult_norm": norm,
    }


def _cmd_all(args, tol):
    inst, families, desc = _load_source(args.source)
    payload = {"command": "all", "source": args.source, "description": desc,
               "structure": validate_structure(inst, tol).as_dict(),
               "families": {}}
    for name in sorted(families):
        fam = _at_depth(families[name], args)
        entry = {"validation": validate_family(fam, inst, tol).as_dict(),
                 "sufficiency": fam.sufficiency(inst, tol).as_dict(),
                 "radical_dim": radical(fam, inst, tol).dim}
        if fam.sufficiency(inst, tol).sufficient:
            entry["gastar_verdict"] = ga_star_check(fam, inst, tol).verdict
        payload["families"][name] = entry
    return payload


_HANDLERS = {
    "validate": _cmd_validate, "forms": _cmd_forms, "gns": _cmd_gns,
    "cone": _cmd_cone, "norm": _cmd_norm, "weakprod": _cmd_weakprod,
    "radical": _cmd_radical, "topology": _cmd_topology,
    "gastar": _cmd_gastar, "lp": _cmd_lp, "all": _cmd_all,
}


def _render_text(obj, indent=0, lines=None):
    lines = [] if lines is None else lines
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                _render_text(val, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(val, indent + 1, lines)
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _common_flags(parser, trailing: bool) -> None:
    # registered on the main parser with real defaults and again on every
    # subparser with suppressed defaults, so the flags work in either position
    d = argparse.SUPPRESS if trailing else None
    parser.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS if trailing else "json")
    parser.add_argument("--tol-psd", type=float, default=d,
                        help="positivity tolerance override")
    parser.add_argument("--tol-rank", type=float, default=d,
                        help="rank cutoff override")
    parser.add_argument("--tol-weak", type=float, default=d,
                        help="weak-product residual tolerance override")
    parser.add_argument("--seed", type=int,
                        default=argparse.SUPPRESS if trailing else DEFAULT_SEED,
                        help="seed for probe generation")
    parser.add_argument("--probes", type=int,
                        default=argparse.SUPPRESS if trailing else 16,
                        help="random probe count where probes are used")
    parser.add_argument("--twist-depth", type=int, default=d,
                        help="override the twist closure depth of loaded families")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="finite-dimensional laboratory for quasi *-algebras "
                    "with invariant form families")
    _common_flags(parser, trailing=False)

    sub = parser.add_subparsers(dest="cmd", required=True)

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p, trailing=True)
        return p

    source_help = f"bundled:<name> or path to instance JSON; bundles: {', '.join(bundle_names())}"

    def add_source(p):
        p.add_argument("source", help=source_help)

    def add_family(p):
        p.add_argument("--family", default=None, help="family name inside the source")

    p = cmd("validate", "structural axioms of an instance")
    add_source(p)
    p = cmd("forms", "validate a family and its closure")
    add_source(p); add_family(p)
    p = cmd("gns", "representation data for the dense seeds")
    add_source(p); add_family(p)
    p = cmd("cone", "positive-wedge membership of an element")
    add_source(p); add_family(p)
    p.add_argument("--element", required=True)
    p = cmd("norm", "bounded-element norm by all routes")
    add_source(p); add_family(p)
    p.add_argument("--element", required=True)
    p = cmd("weakprod", "weak product of two elements")
    add_source(p); add_family(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p = cmd("radical", "joint degeneracy space of a family")
    add_source(p); add_family(p)
    p = cmd("topology", "seminorm values and multiplication bounds")
    add_source(p); add_family(p)
    p.add_argument("--element", default=None)
    p = cmd("gastar", "candidate qualification and consequences")
    add_source(p); add_family(p)
    p = cmd("lp", "discrete function model: extremal weights")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--masses", default=None, help="comma-separated masses")
    p.add_argument("--values", default=None, help="comma-separated point values")
    p = cmd("all", "full report over every family in the source")
    add_source(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    tol = _tol(args)
    started = time.perf_counter()
    try:
        payload = _HANDLERS[args.cmd](args, tol)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QStarError as exc:
        failure = {"command": args.cmd, "error": type(exc).__name__,
                   "detail": str(exc)}
        if args.format == "json":
            print(dumps(failure))
        else:
            print("\n".join(_render_text(failure)))
        return 3
    if args.format == "json":
        print(dumps(payload))
    else:
        lines = _render_text(payload)
        lines.append(f"wall_ms: {1000.0 * (time.perf_counter() - started):.1f}")
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
