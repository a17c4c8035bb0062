"""The three workloads: their operations, answer fields and references.

Every operation builds what it uses from plain inputs made at set-up, so
the library's identity-keyed memos start empty in every operation, as
they do for a command-line user.  The timed part of an operation returns
its raw outcome; the answer fields are read from it after the pass.

Answer fields are the things a user acts on: verdicts, per-check pass
flags, ranks, dimensions, closure sizes, exit codes and error types, and
the values of norms, weak-product coefficients, seminorms and L^p sups.
Diagnostic residuals, per-route values, whole stdout and the ``threads``
echo are left out, so refactors that change those do not count as wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qstarlab
import qstarlab.cli

import corpus

REFERENCE = Path(__file__).with_name("reference.json")

# values below this magnitude are compared absolutely: the answers here
# are of order one, and rounding noise on a zero is ~1e-16
ABS_FLOOR = 1.0


@dataclass
class Op:
    name: str
    call: Callable[[], object]          # timed
    answer: Callable[[object], dict]    # untimed, on the outcome of call
    expected: dict | None               # None: no reference recorded
    tol: float


@dataclass(frozen=True)
class Raised:
    """Outcome of an operation that raised instead of returning."""

    error: str


def mismatches(expected, got, tol, path=""):
    """Paths at which ``got`` differs from ``expected``.

    Floats agree within ``tol`` relative to max(|expected|, ABS_FLOOR);
    everything else, including the "nan"/"inf" strings of the JSON
    reports, must be equal.
    """
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(expected) | set(got)):
            if key not in expected or key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out += mismatches(expected[key], got[key], tol, f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += mismatches(e, g, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isfinite(got) and abs(got - expected) <= tol * max(abs(expected), ABS_FLOOR):
            return []
        return [f"{path}: {got!r} != {expected!r}"]
    if type(expected) is type(got) and expected == got:
        return []
    return [f"{path}: {got!r} != {expected!r}"]


def _flags(checks):
    return {c["name"]: c["passed"] for c in checks}


# -- cli-bundles ---------------------------------------------------------------

PAIRS = (("m2_diag", "good"), ("m2_diag", "bad"), ("m2_full", "trace"),
         ("m2_full", "rank1"), ("m3_pattern", "good"), ("m2_flip", "amb"),
         ("lp_k2_p4", "points"))
BUNDLES = ("m2_diag", "m2_full", "m3_pattern", "m2_flip", "lp_k2_p4")
TWO_DIM = ("m2_flip", "lp_k2_p4")

# every example of the README, in its order
README = (
    "validate bundled:m2_diag",
    "forms bundled:m2_diag --family good",
    "gns bundled:m2_full --family trace",
    "cone bundled:m2_diag --family good --element [0.0,0.0,0.0,-1.0]",
    "norm bundled:m2_diag --family good --element basis:1",
    "weakprod bundled:m2_diag --family good --left basis:1 --right basis:2",
    "radical bundled:m2_diag --family bad",
    "topology bundled:m2_diag --family good",
    "gastar bundled:m2_diag --family bad",
    "lp --points 2 --exponent 4 --masses 0.5,0.5 --values 1,2",
    "all bundled:m2_diag",
)

EXTRA = (
    # lp at k = 2 and k = 8, including the p = 2 branch; the four k = 8
    # runs of the ascent oracle are what op_p90_ms lands on
    "lp --points 2 --exponent 2",
    "lp --points 8 --exponent 4",
    "lp --points 8 --exponent 2.5 --values 3,1,4,1,5,9,2,6",
    "lp --points 8 --exponent 5 --masses 0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1",
    "lp --points 8 --exponent 6 --masses 0.05,0.1,0.15,0.2,0.1,0.1,0.2,0.1 "
    "--values 1,-2,3i,0.5,4,1+1i,2,-3",
    # global flags, before and after the subcommand
    "forms bundled:m2_diag --family good --twist-depth 2",
    "--probes 4 --seed 7 topology bundled:m2_full --family trace",
    "gastar bundled:m2_diag --family good --tol-rank 1e-9",
    "norm bundled:m2_full --family trace --element e --format text",
    # expected typed analysis errors (exit 3)
    "lp --points 2 --exponent 1",
    "lp --points 2 --exponent 4 --values 0,0",
    # unusable input (exit 2)
    "lp --points 3 --exponent 4 --masses 0.5,0.5",
    "validate bundled:no_such_bundle",
    "norm bundled:m2_diag --element e",
    "norm bundled:m2_diag --family good --element [1,2",
    "norm bundled:m2_diag --family good --element basis:9",
    "norm bundled:m2_diag --family good",
)

def fixed_cli_commands():
    cmds = list(README)
    for bundle, fam in PAIRS:
        src = f"bundled:{bundle} --family {fam}"
        right = "basis:1" if bundle in TWO_DIM else "basis:2"
        for sub in ("forms", "gns", "radical", "topology", "gastar"):
            cmds.append(f"{sub} {src}")
        cmds.append(f"cone {src} --element basis:1")
        cmds.append(f"norm {src} --element basis:1")
        cmds.append(f"weakprod {src} --left basis:1 --right {right}")
    for bundle in BUNDLES:
        cmds += [f"validate bundled:{bundle}", f"all bundled:{bundle}"]
    cmds += EXTRA
    return list(dict.fromkeys(cmds))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qstarlab.cli.main(argv)
    return code, out.getvalue()


def _cli_answer(argv):
    def answer(outcome):
        if isinstance(outcome, Raised):
            return {"raised": outcome.error}
        code, text = outcome
        out = {"exit": code}
        if code not in (0, 3) or "text" in argv:
            return out
        p = json.loads(text)
        if code == 3:
            out["error"] = p["error"]
            return out
        out.update(_EXTRACT[p["command"]](p))
        return out
    return answer


def _forms_answer(p):
    r, s = p["report"], p["sufficiency"]
    return {"accepted": r["accepted"], "closure_size": r["closure_size"],
            "seeds": [[x["label"], x["accepted"], x["rank_full"], x["rank_sub"]]
                      for x in r["seeds"]],
            "checks": _flags(r["checks"]), "sufficient": s["sufficient"],
            "dim_null": s["dim_null"], "sufficiency_checks": _flags(s["checks"])}


def _all_answer(p):
    fams = {}
    for name, f in p["families"].items():
        fams[name] = {"accepted": f["validation"]["accepted"],
                      "closure_size": f["validation"]["closure_size"],
                      "sufficient": f["sufficiency"]["sufficient"],
                      "dim_null": f["sufficiency"]["dim_null"],
                      "radical_dim": f["radical_dim"],
                      "gastar_verdict": f.get("gastar_verdict")}
    return {"valid": p["structure"]["valid"],
            "checks": _flags(p["structure"]["checks"]), "families": fams}


def _lp_answer(p):
    h, m = p["holder"], p["mult_norm"]
    return {"sup": h["sup"], "seminorm": h["seminorm"], "attained": h["attained"],
            "extremal_weight": h["extremal_weight"],
            "sup_estimate": p["ascent_oracle"]["sup_estimate"],
            "undershoots": p["ascent_oracle"]["undershoots"],
            "mult_norm": [m["analytic"], m["generic"], m["agrees"]]}


_EXTRACT = {
    "validate": lambda p: {"valid": p["report"]["valid"],
                           "checks": _flags(p["report"]["checks"])},
    "forms": _forms_answer,
    "gns": lambda p: {"reps": [[r["label"], r["dense"], r.get("dim_H")]
                               for r in p["representations"]]},
    "cone": lambda p: {"member": p["report"]["member"],
                       "generators": [[g["label"], g["passed"]]
                                      for g in p["report"]["per_generator"]]},
    # the radius-envelope check belongs to the radius route, which may go
    "norm": lambda p: {"value": p["report"]["value"],
                       "hermitian": p["report"]["hermitian"]},
    "weakprod": lambda p: {"coeffs": p["coeffs"]},
    "radical": lambda p: {"dim": p["report"]["dim"],
                          "checks": _flags(p["report"]["checks"])},
    "topology": lambda p: {"set_size": p["set_size"], "gamma": p["gamma"],
                           "seminorms": p["seminorms"],
                           "mult_bounds": p["subalgebra_mult_bounds"],
                           "relation": p["upper_vs_star"]["relation"]},
    "gastar": lambda p: {"verdict": p["report"]["verdict"],
                         "conditions": _flags(p["report"]["conditions"]),
                         "consequences": _flags(p["report"]["consequences"])},
    "lp": _lp_answer,
    "all": _all_answer,
}


def _coeff_text(c):
    return json.dumps([[float(z.real), float(z.imag)] for z in c], separators=(",", ":"))


def _m2_coeffs(M):
    # M = c0 I + c1 E01 + c2 E10 + c3 E11
    return np.array([M[0, 0], M[0, 1], M[1, 0], M[1, 1] - M[0, 0]])


def seeded_cli_commands(rng):
    """Commands on bundled:m2_full, family trace, with closed-form answers.

    That family is the normalized trace on the full 2x2 matrices, so the
    norm of an element is the spectral norm of its matrix, the weak
    product is the matrix product, and the positive wedge is the positive
    semidefinite cone.
    """
    src = "bundled:m2_full --family trace"
    out = []

    def rand_matrix():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    for k in range(4):
        A = rand_matrix()
        if k % 2:
            A = A + A.conj().T
        out.append((f"norm {src} --element {_coeff_text(_m2_coeffs(A))}",
                    {"exit": 0, "value": float(np.linalg.norm(A, 2)),
                     "hermitian": bool(k % 2)}))
    for _ in range(4):
        A, B = rand_matrix(), rand_matrix()
        c = _m2_coeffs(A @ B)
        out.append((f"weakprod {src} --left {_coeff_text(_m2_coeffs(A))} "
                    f"--right {_coeff_text(_m2_coeffs(B))}",
                    {"exit": 0, "coeffs": [[float(z.real), float(z.imag)] for z in c]}))
    for k in range(4):
        Q, _ = np.linalg.qr(rand_matrix())
        # eigenvalues bounded away from zero, of one sign or of both
        w = rng.uniform(0.5, 2.0, size=2) * (1.0 if k % 2 else np.array([1.0, -1.0]))
        A = Q @ np.diag(w) @ Q.conj().T
        member = bool(k % 2)
        out.append((f"cone {src} --element {_coeff_text(_m2_coeffs(A))}",
                    {"exit": 0, "member": member, "generators": [["halftrace", member]]}))
    return out


def cli_ops(seed, reference):
    tol = qstarlab.DEFAULT_TOL
    rng = np.random.default_rng(seed)
    pairs = [(cmd, reference.get(cmd)) for cmd in fixed_cli_commands()]
    pairs += seeded_cli_commands(rng)
    ops = []
    for cmd, expected in pairs:
        argv = cmd.split()
        ops.append(Op(cmd, lambda argv=argv: _run_cli(argv), _cli_answer(argv),
                      expected, tol.weak if argv[0] == "weakprod" else tol.cross_check))
    return ops, hashlib.sha256("\n".join(c for c, _ in pairs).encode()).hexdigest()


# -- corpus workloads ------------------------------------------------------------


def _gastar_call(raw):
    inst, fam = corpus.build(qstarlab, raw)
    return qstarlab.ga_star_check(fam, inst)


def _gastar_answer(report):
    if isinstance(report, Raised):
        return {"raised": report.error}
    d = report.as_dict()
    data = {c["name"]: c.get("data", {}) for c in d["conditions"] + d["consequences"]}
    return {"verdict": d["verdict"], "conditions": _flags(d["conditions"]),
            "consequences": _flags(d["consequences"]),
            "max_norm": data["subalgebra-acts-boundedly"]["max_norm"],
            "skipped_products": data["bounded-part-norm-laws"].get("skipped_products")}


def _intake_call(raw):
    inst, fam = corpus.build(qstarlab, raw)
    return (qstarlab.validate_structure(inst), qstarlab.validate_family(fam, inst),
            fam.sufficiency(inst), qstarlab.radical(fam, inst))


def _intake_answer(outcome):
    if isinstance(outcome, Raised):
        return {"raised": outcome.error}
    structure, family, suff, rad = (r.as_dict() for r in outcome)
    return {
        "valid": structure["valid"], "structure_checks": _flags(structure["checks"]),
        "accepted": family["accepted"], "closure_size": family["closure_size"],
        "seeds": [[s["accepted"], s["rank_full"], s["rank_sub"]] for s in family["seeds"]],
        "family_checks": _flags(family["checks"]),
        "sufficient": suff["sufficient"], "dim_null": suff["dim_null"],
        "sufficiency_checks": _flags(suff["checks"]),
        "radical_dim": rad["dim"], "radical_checks": _flags(rad["checks"]),
    }


def corpus_ops(seed, reference, slots, call, answer):
    pairs = corpus.make_pairs(seed, slots)
    tol = qstarlab.DEFAULT_TOL.cross_check
    ops = [Op(raw.slot.name, lambda raw=raw: call(raw), answer,
              reference.get(raw.slot.name), tol) for raw in pairs]
    return ops, corpus.digest(pairs)


def load_reference(workload):
    return json.loads(REFERENCE.read_text())[workload]


def build_ops(workload, seed, reference):
    """(ops, digest of the generated inputs) for one workload and seed."""
    if workload == "cli-bundles":
        return cli_ops(seed, reference)
    if workload == "gastar-corpus":
        return corpus_ops(seed, reference, corpus.GASTAR_SLOTS, _gastar_call, _gastar_answer)
    if workload == "intake-n8":
        return corpus_ops(seed, reference, corpus.INTAKE_SLOTS, _intake_call, _intake_answer)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli-bundles", "gastar-corpus", "intake-n8")


# -- known defects -----------------------------------------------------------------


def known_defects(workdir: Path):
    """The scale and input-hardening defects listed in ROADMAP item 4.

    Each entry is (name, argv, verdict) where verdict maps the outcome to
    None when the documented contract holds, else to what was seen.  The
    expectations come from the contract, not from any program's output.
    """
    tol = qstarlab.DEFAULT_TOL.cross_check
    bundle = json.loads((Path(qstarlab.__file__).parent / "bundled" / "m2_diag.json").read_text())
    paths = {}
    for name, entry in (("nan", float("nan")), ("bool", True)):
        payload = json.loads(json.dumps(bundle))
        payload["instance"]["basis"][1][0][1] = entry
        paths[name] = workdir / f"m2_diag_{name}_entry.json"
        paths[name].write_text(json.dumps(payload))

    def norm_value(outcome):
        if isinstance(outcome, Raised) or outcome[0] != 0:
            return None, outcome
        report = json.loads(outcome[1])["report"]
        return report["value"], report["routes"].get("gns")

    def tiny(outcome):
        v, _ = norm_value(outcome)
        ok = isinstance(v, float) and abs(v - 1e-200) <= tol * 1e-200
        return None if ok else f"value {v!r}, expected 1e-200"

    def huge(outcome):
        v, gns = norm_value(outcome)
        ok = (isinstance(v, float) and isinstance(gns, float) and math.isfinite(v)
              and abs(v - gns) <= tol * abs(gns))
        return None if ok else f"value {v!r}, gns route {gns!r}"

    def exit_2(outcome):
        seen = outcome.error if isinstance(outcome, Raised) else f"exit {outcome[0]}"
        return None if seen == "exit 2" else f"{seen}, expected exit 2"

    src = "bundled:m2_diag --family good --element"
    return [
        ("norm-of-1e-200-unit-multiple", f"norm {src} [1e-200,0,0,0]".split(), tiny),
        ("norm-of-element-with-1e300-entry", f"norm {src} [1,0,0,1e300]".split(), huge),
        ("instance-with-nan-entry-exits-2", ["validate", str(paths["nan"])], exit_2),
        ("instance-with-boolean-entry-exits-2", ["validate", str(paths["bool"])], exit_2),
    ]


def run_known_defects(workdir: Path):
    """Names of the known defects that still show, with what was seen."""
    failing = {}
    for name, argv, verdict in known_defects(workdir):
        try:
            outcome = _run_cli(argv)
        except Exception as exc:  # the defect under test may be a traceback
            outcome = Raised(type(exc).__name__)
        seen = verdict(outcome)
        if seen is not None:
            failing[name] = seen
    return failing
