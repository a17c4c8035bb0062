"""Command line driver.

Instance sources are ``bundled:<name>`` or a path to a JSON file with the
same layout as the bundled data.  Reports are emitted as deterministic
JSON (byte-identical across runs for the same inputs) or as an indented
text rendering that additionally shows wall time.  Exit codes: 0 when the
requested report was produced, 2 for unusable input, 3 when a typed
analysis error stopped the computation.  The argument parser is built
on the first ``main`` call and reused for every later call in the process.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import QuasiAlgebraInstance, _as_complex_entry, validate_structure
from .bounded import (cone_membership, cone_witness_element, m_bounded_norm,
                      radical, weak_product)
from .bundled import bundle_names, load_bundle, parse_payload
from .errors import ParseError, QStarError
from .forms import FormFamily, _checked_depth, validate_family
from .gns import reconstruction_defect
from .lp_model import holder_sup, lp_bounded_norm, weight_ascent_oracle
from .probes import DEFAULT_SEED, standard_probes
from .report import dumps, pairs
from .tolerances import DEFAULT_TOL
from .topology import (SEMINORM_KINDS, BoundedFormSet, compare_topologies, gamma,
                       left_mult_bound, seminorm_eval, ga_star_check)


def _read_text(path: Path, source: str) -> str:
    """The UTF-8 text of a file, or a ParseError naming ``source``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(source, f"cannot read the file: {exc}") from None


def _load_source(source: str):
    if source.startswith("bundled:"):
        bundle = load_bundle(source.split(":", 1)[1])
        return bundle["instance"], bundle["families"], bundle["description"]
    path = Path(source)
    if not path.exists():
        raise ParseError(source, "no such file; use bundled:<name> or a JSON path")
    try:
        payload = json.loads(_read_text(path, source))
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
        raw = _read_text(path, text)
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
    given = {"psd": args.tol_psd, "rank": args.tol_rank, "weak": args.tol_weak}
    overrides = {key: value for key, value in given.items() if value is not None}
    for key, value in overrides.items():
        if not (math.isfinite(value) and value >= 0):
            raise ParseError(f"--tol-{key}", f"must be a finite number >= 0, got {value!r}")
    return DEFAULT_TOL.override(**overrides) if overrides else DEFAULT_TOL


def _at_depth(fam: FormFamily, args) -> FormFamily:
    """The family, rebuilt at the ``--twist-depth`` override if one is given."""
    if args.twist_depth is None:
        return fam
    return FormFamily(fam.seeds, fam.balanced, args.twist_depth, fam.label)


def _finite(values, text: str, what: str):
    if not all(map(cmath.isfinite, values)):
        raise ParseError(text, f"{what} must be finite")
    return values


def _csv_floats(text: str, what: str):
    try:
        return _finite([float(x) for x in text.split(",") if x.strip()], text, what)
    except ValueError:
        raise ParseError(text, f"{what} must be comma-separated numbers") from None


def _csv_complex(text: str, what: str):
    # a trailing "i" marks the imaginary part; any other "i" stays, as in "inf"
    pieces = [x.strip() for x in text.split(",") if x.strip()]
    try:
        return _finite([complex(x[:-1] + "j" if x.endswith("i") else x) for x in pieces],
                       text, what)
    except ValueError:
        raise ParseError(text, f"{what} must be comma-separated numbers") from None


# -- subcommand handlers ----------------------------------------------------
# Each handler takes the parsed arguments, the tolerances and what _setup
# loaded for it, and returns its report: the payload after _setup's head.


def _setup(reads, args):
    """``(head, inputs)`` for a subcommand that reads ``reads`` (None,
    "source" or "family"): the payload's head, and what its handler takes
    after ``args`` and ``tol``.  A source gives the instance and every
    family, a family the instance and the chosen family; families are at
    the ``--twist-depth`` override if one is given."""
    head = {"command": args.cmd}
    if reads is None:
        return head, ()
    inst, families, desc = _load_source(args.source)
    head["source"] = args.source
    if reads == "source":
        head["description"] = desc
        return head, (inst, {name: _at_depth(fam, args) for name, fam in families.items()})
    fam = _at_depth(_pick_family(families, args.family, args.source), args)
    head["family"] = fam.label
    return head, (inst, fam)


def _cmd_validate(args, tol, inst, families):
    return {"report": validate_structure(inst, tol).as_dict()}


def _cmd_forms(args, tol, inst, fam):
    report = validate_family(fam, inst, tol)
    return {"report": report.as_dict(), "sufficiency": fam.sufficiency(inst, tol).as_dict()}


def _cmd_gns(args, tol, inst, fam):
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
    return {"representations": out}


def _cmd_cone(args, tol, inst, fam):
    a = _parse_element(inst, args.element)
    report = cone_membership(a, fam, inst, tol)
    out = {"element": args.element, "report": report.as_dict()}
    if not report.member and report.witness_coeffs is not None:
        w = cone_witness_element(report, inst)
        out["witness_pairing"] = pairs(report.witness_value)
        out["witness_norm"] = w.norm_frobenius()
    return out


def _cmd_norm(args, tol, inst, fam):
    a = _parse_element(inst, args.element)
    return {"element": args.element, "report": m_bounded_norm(a, fam, inst, tol).as_dict()}


def _cmd_weakprod(args, tol, inst, fam):
    a = _parse_element(inst, args.left)
    b = _parse_element(inst, args.right)
    c, rep = weak_product(a, b, fam, inst, tol)
    return {"left": args.left, "right": args.right,
            "coeffs": pairs(c.coeffs), "report": rep.as_dict()}


def _cmd_radical(args, tol, inst, fam):
    return {"report": radical(fam, inst, tol).as_dict()}


def _cmd_topology(args, tol, inst, fam):
    F = BoundedFormSet.from_family(fam, inst, tol)
    a = _parse_element(inst, args.element) if args.element else inst.unit
    probes = standard_probes(inst, count=args.probes, seed=args.seed)
    mult_bounds = [left_mult_bound(fam, inst.a0_basis_element(j), inst, tol)
                   for j in range(inst.a0_dim)]
    comparison = compare_topologies(F, "upper", F, "star", probes)
    return {
        "set_size": len(F), "gamma": gamma(F, inst),
        "element": args.element or "e",
        "seminorms": {kind: seminorm_eval(F, a, kind) for kind in SEMINORM_KINDS},
        "subalgebra_mult_bounds": mult_bounds,
        "upper_vs_star": comparison,
    }


def _cmd_gastar(args, tol, inst, fam):
    return {"report": ga_star_check(fam, inst, tol).as_dict()}


def _cmd_lp(args, tol):
    k = args.points
    if k < 1:
        raise ParseError("--points", f"must be at least 1, got {k}")
    if not math.isfinite(args.exponent):
        raise ParseError("--exponent", f"must be a finite number, got {args.exponent!r}")
    masses = _csv_floats(args.masses, "masses") if args.masses else [1.0 / k] * k
    if args.values:
        values = _csv_complex(args.values, "values")
    else:
        values = [float(i + 1) for i in range(k)]
    if len(masses) != k or len(values) != k:
        raise ParseError("lp", f"masses and values must have {k} entries")
    hs = holder_sup(values, args.exponent, masses)
    oracle = weight_ascent_oracle(values, args.exponent, masses)
    norm = lp_bounded_norm(values, args.exponent, masses, tol)
    return {
        "points": k, "exponent": float(args.exponent),
        "masses": masses,
        "values": pairs(values),
        "holder": {
            "sup": hs["sup"], "seminorm": hs["seminorm"],
            "attained": hs["attained"],
            "extremal_weight": [float(x) for x in hs["extremal_weight"]],
            "conjugate_index": hs["conjugate_index"],
            "weight_ball_norm": hs["weight_ball_norm"],
        },
        "ascent_oracle": {"sup_estimate": oracle["sup_estimate"],
                          "undershoots": oracle["sup_estimate"] <= hs["sup"] * (1.0 + 1e-9)},
        "mult_norm": norm,
    }


def _cmd_all(args, tol, inst, families):
    out = {"structure": validate_structure(inst, tol).as_dict(), "families": {}}
    for name in sorted(families):
        fam = families[name]
        validation = validate_family(fam, inst, tol).as_dict()
        suff = fam.sufficiency(inst, tol)
        entry = {"validation": validation, "sufficiency": suff.as_dict(),
                 "radical_dim": radical(fam, inst, tol).dim}
        if suff.sufficient:
            entry["gastar_verdict"] = ga_star_check(fam, inst, tol).verdict
        out["families"][name] = entry
    return out


# name: (what the subcommand reads, its help text, its handler).  The one
# table drives both the parser and the dispatch, in this order.
_COMMANDS = {
    "validate": ("source", "structural axioms of an instance", _cmd_validate),
    "forms": ("family", "validate a family and its closure", _cmd_forms),
    "gns": ("family", "representation data for the dense seeds", _cmd_gns),
    "cone": ("family", "positive-wedge membership of an element", _cmd_cone),
    "norm": ("family", "bounded-element norm by all routes", _cmd_norm),
    "weakprod": ("family", "weak product of two elements", _cmd_weakprod),
    "radical": ("family", "joint degeneracy space of a family", _cmd_radical),
    "topology": ("family", "seminorm values and multiplication bounds", _cmd_topology),
    "gastar": ("family", "candidate qualification and consequences", _cmd_gastar),
    "lp": (None, "discrete function model: extremal weights", _cmd_lp),
    "all": ("source", "full report over every family in the source", _cmd_all),
}


def _render_text(obj, indent=0, lines=None):
    lines = [] if lines is None else lines
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list, tuple)) and val:
                lines.append(f"{pad}{key}:")
                _render_text(val, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(obj, (list, tuple)):
        # a tuple is a JSON array, as in ``report.dumps``
        for val in obj:
            if isinstance(val, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _render_text(val, indent + 1, lines)
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


# values of the common flags when none is given; a value after the
# subcommand overrides one given before it
_DEFAULTS = {"format": "json", "tol_psd": None, "tol_rank": None, "tol_weak": None,
             "seed": DEFAULT_SEED, "probes": 16, "twist_depth": None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing never mutates the parser, and _run()
    # parses into a fresh namespace.  Each shared argument is declared once,
    # on a parent parser.  Parents share their Action objects with every
    # parser built from them, so the common flags default to SUPPRESS
    # everywhere and _run() seeds the namespace from _DEFAULTS;
    # set_defaults would leak between subparsers
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "text"))
    common.add_argument("--tol-psd", type=float, help="positivity tolerance override")
    common.add_argument("--tol-rank", type=float, help="rank cutoff override")
    common.add_argument("--tol-weak", type=float,
                        help="weak-product residual tolerance override")
    common.add_argument("--seed", type=int, help="seed for probe generation")
    common.add_argument("--probes", type=int, help="random probe count where probes are used")
    common.add_argument("--twist-depth", type=int,
                        help="override the twist closure depth of loaded families")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("source", help="bundled:<name> or path to instance JSON; "
                                       f"bundles: {', '.join(bundle_names())}")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", default=None, help="family name inside the source")

    parser = argparse.ArgumentParser(
        prog="qstar",
        description="finite-dimensional laboratory for quasi *-algebras "
                    "with invariant form families",
        parents=[common])
    sub = parser.add_subparsers(dest="cmd", required=True)
    parents = {None: [common], "source": [common, source], "family": [common, source, family]}
    p = {name: sub.add_parser(name, help=help_text, parents=parents[reads])
         for name, (reads, help_text, _) in _COMMANDS.items()}
    p["cone"].add_argument("--element", required=True)
    p["norm"].add_argument("--element", required=True)
    p["weakprod"].add_argument("--left", required=True)
    p["weakprod"].add_argument("--right", required=True)
    p["topology"].add_argument("--element", default=None)
    p["lp"].add_argument("--points", type=int, required=True)
    p["lp"].add_argument("--exponent", type=float, required=True)
    p["lp"].add_argument("--masses", default=None, help="comma-separated masses")
    p["lp"].add_argument("--values", default=None, help="comma-separated point values")
    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(**_DEFAULTS))
        if args.twist_depth is not None:
            _checked_depth(args.twist_depth, "--twist-depth")
        if args.probes < 0:
            raise ParseError("--probes", f"must be >= 0, got {args.probes}")
        if args.seed < 0:
            raise ParseError("--seed", f"must be >= 0, got {args.seed}")
        reads, _, handler = _COMMANDS[args.cmd]
        started = time.perf_counter()
        tol = _tol(args)
        head, inputs = _setup(reads, args)
        payload, code = {**head, **handler(args, tol, *inputs)}, 0
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QStarError as exc:
        payload, code = {"command": args.cmd, "error": type(exc).__name__,
                         "detail": str(exc)}, 3
    if args.format == "json":
        print(dumps(payload))
    else:
        lines = _render_text(payload)
        if code == 0:
            lines.append(f"wall_ms: {1000.0 * (time.perf_counter() - started):.1f}")
        print("\n".join(lines))
    return code


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # flushed inside the guard, so the flush at exit has nothing left to raise
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: send the rest to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
