"""Seminorm topologies induced by bounded sets of forms.

A finite set F of forms induces three families of seminorms:

* ``upper``: a -> max over F of phi(a, a)^(1/2), the strong topology;
* ``lower``: a -> max over F of |phi(a, e)|, the weak topology;
* ``star``:  a -> max of the upper seminorm at a and at a*.

The lower seminorm is controlled by the upper one through the constant
gamma = max phi(e, e)^(1/2).  Twisting the set by a subalgebra element x
converts right multiplication into a seminorm identity:
upper_F(a.x) = upper_{F^x}(a).

``ga_star_check`` runs the candidate qualification: separation, bounded
quotient actions of the subalgebra, representable products, and the
(structurally automatic) completeness, then exercises the inequalities
that qualification buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Element, QuasiAlgebraInstance
from .bounded import check_condition_product, extract_bounded_algebra, m_bounded_norm
from .errors import EmptyFamily, NotIps, NotSufficient
from .forms import FormFamily, twist
from .report import CheckResult, all_passed
from .tolerances import DEFAULT_TOL, ToleranceConfig

SEMINORM_KINDS = ("upper", "lower", "star")
TOPOLOGY_KINDS = {"weak": "lower", "strong": "upper", "strong-star": "star"}


class BoundedFormSet:
    """A finite collection of forms used as the index set of seminorms."""

    def __init__(self, forms, label: str = "F"):
        self.forms = tuple(forms)
        if not self.forms:
            raise EmptyFamily("a bounded form set needs at least one form")
        self.label = label

    @classmethod
    def from_family(cls, family: FormFamily, alg: QuasiAlgebraInstance,
                    tol: ToleranceConfig = DEFAULT_TOL):
        return cls(family.forms(alg, tol), label=family.label)

    def __len__(self):
        return len(self.forms)


def p_upper(F: BoundedFormSet, a: Element) -> float:
    """max over the set of phi(a, a)^(1/2)."""
    best = 0.0
    for phi in F.forms:
        v = phi.eval(a, a).real
        best = max(best, float(np.sqrt(max(v, 0.0))))
    return best


def p_lower(F: BoundedFormSet, a: Element) -> float:
    """max over the set of |phi(a, e)|."""
    e = a.alg.unit
    return max((abs(phi.eval(a, e)) for phi in F.forms), default=0.0)


def p_star(F: BoundedFormSet, a: Element) -> float:
    """max of the upper seminorm at a and at its adjoint."""
    return max(p_upper(F, a), p_upper(F, a.star()))


def gamma(F: BoundedFormSet, alg: QuasiAlgebraInstance) -> float:
    """max over the set of phi(e, e)^(1/2); controls lower by upper."""
    e = alg.unit
    return max((float(np.sqrt(max(phi.eval(e, e).real, 0.0))) for phi in F.forms),
               default=0.0)


def seminorm_eval(F: BoundedFormSet, a: Element, kind: str) -> float:
    if kind in TOPOLOGY_KINDS:
        kind = TOPOLOGY_KINDS[kind]
    if kind == "upper":
        return p_upper(F, a)
    if kind == "lower":
        return p_lower(F, a)
    if kind == "star":
        return p_star(F, a)
    raise ValueError(f"unknown seminorm kind {kind!r}")


def twisted_set(F: BoundedFormSet, x: Element,
                tol: ToleranceConfig = DEFAULT_TOL) -> BoundedFormSet:
    """The set of twists phi^x over the set; empty twists are kept."""
    return BoundedFormSet([twist(phi, x, tol) for phi in F.forms],
                          label=f"{F.label}^tw")


def left_mult_bound(family: FormFamily, x: Element, alg: QuasiAlgebraInstance,
                    tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest c with phi(a.x, a.x) <= c^2 phi(a, a) for every member phi
    of the effective family.

    A finite value certifies upper_F(a.x) <= c upper_F(a).  The constant
    is required uniformly per member, which is the bound that survives
    enlarging the set; the max seminorm alone could admit a smaller or
    even finite constant when individual members do not.  Per form this
    is a generalized Rayleigh problem for the right action of x on the
    essential range of the Gram matrix; any mass pushed out of a member's
    null space makes the bound infinite.
    """
    R, _ = alg.right_mult_matrix(x.matrix)
    slack = tol.psd * max(1.0, float(np.linalg.norm(R, 2)) ** 2)
    ctx = family.context(alg, tol)
    worst = 0.0
    for G, sec in zip(ctx.closure[1], ctx.member_sections):
        if sec.wmax == 0.0:
            continue
        L = R.conj().T @ G @ R
        L = (L + L.conj().T) / 2.0
        if sec.leak(L) > slack * sec.wmax:
            return float("inf")
        worst = max(worst, sec.gain(L))
    return worst


def compare_topologies(F1: BoundedFormSet, kind1: str, F2: BoundedFormSet, kind2: str,
                       probes, cap: float = 1e8) -> dict:
    """Empirical domination constants between two seminorms on a probe set.

    Reports the largest observed ratio in each direction; a ratio against
    an (essentially) vanishing denominator counts as unbounded.  This is a
    sampled comparison, not a proof.
    """
    probes = list(probes)
    c12 = 0.0
    c21 = 0.0
    for a in probes:
        v1 = seminorm_eval(F1, a, kind1)
        v2 = seminorm_eval(F2, a, kind2)
        floor = 1e-14 * max(v1, v2, 1.0)
        if v2 <= floor:
            c12 = float("inf") if v1 > floor else c12
        else:
            c12 = max(c12, v1 / v2)
        if v1 <= floor:
            c21 = float("inf") if v2 > floor else c21
        else:
            c21 = max(c21, v2 / v1)
    dom12 = c12 < cap
    dom21 = c21 < cap
    if dom12 and dom21:
        relation = "equivalent-on-probes"
    elif dom12:
        relation = "first-dominated-by-second"
    elif dom21:
        relation = "second-dominated-by-first"
    else:
        relation = "incomparable-on-probes"
    return {
        "constant_first_over_second": c12,
        "constant_second_over_first": c21,
        "relation": relation,
        "n_probes": len(probes),
        "empirical": True,
    }


@dataclass
class GaStarReport:
    """Outcome of the candidate qualification and its consequences."""

    label: str
    verdict: bool
    conditions: list = field(default_factory=list)
    consequences: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "verdict": self.verdict,
            "conditions": [c.as_dict() for c in self.conditions],
            "consequences": [c.as_dict() for c in self.consequences],
        }


def ga_star_check(family: FormFamily, alg: QuasiAlgebraInstance,
                  tol: ToleranceConfig = DEFAULT_TOL, probes=None) -> GaStarReport:
    """Qualify the pair (instance, family) and exercise what follows.

    Conditions: the family separates points; every subalgebra basis
    element acts boundedly on each quotient; representation products stay
    representable; completeness, which finite-dimensional coordinate
    spaces provide outright.  When all hold, the report also verifies the
    pairing bound against star seminorms, the vector bound for twisted
    sets, and the normed-algebra laws of the bounded part.
    """
    report = GaStarReport(label=family.label, verdict=False)
    if probes is None:
        probes = [alg.basis_element(i) for i in range(alg.dim)]
        probes += [p.star() for p in probes]

    suff = family.sufficiency(alg, tol)
    sep_data = {"dim_null": suff.dim_null, "margin": suff.margin}
    if not suff.sufficient and suff.witness_coeffs is not None:
        # the witness is a nonzero element invisible to every member
        sep_data["witness_coeffs"] = [[float(z.real), float(z.imag)]
                                      for z in suff.witness_coeffs]
        sep_data["max_witness_value"] = suff.max_witness_value
    report.conditions.append(CheckResult("separates-points", suff.sufficient,
                                         sep_data))

    bounded_ok = suff.sufficient
    max_norm = 0.0
    if suff.sufficient:
        try:
            for j in range(alg.a0_dim):
                x = alg.a0_basis_element(j)
                v = m_bounded_norm(x, family, alg, tol).value
                max_norm = max(max_norm, v)
                bounded_ok = bounded_ok and np.isfinite(v)
        except (NotSufficient, NotIps):
            bounded_ok = False
    report.conditions.append(CheckResult(
        "subalgebra-acts-boundedly", bounded_ok, {"max_norm": max_norm}))

    try:
        cond_prod = check_condition_product(family, alg, tol)
        report.conditions.append(CheckResult(
            "products-stay-representable", cond_prod["holds"],
            {"worst_relative_residual": cond_prod["worst_relative_residual"],
             "n_failures": cond_prod["n_failures"]}))
    except NotIps as exc:
        report.conditions.append(CheckResult(
            "products-stay-representable", False, {}, note=str(exc)))

    report.conditions.append(CheckResult(
        "complete", True, {},
        note="finite-dimensional coordinate spaces are complete; nothing to verify"))

    report.verdict = all_passed(report.conditions)
    if not report.verdict:
        return report

    F = BoundedFormSet.from_family(family, alg, tol)

    worst_pair = 0.0
    m = min(len(probes), 6)
    for i in range(m):
        for j in range(m):
            pa = p_star(F, probes[i])
            pb = p_star(F, probes[j])
            for phi in F.forms:
                v = abs(phi.eval(probes[i], probes[j]))
                excess = v - pa * pb
                worst_pair = max(worst_pair, excess / max(pa * pb, 1.0))
    report.consequences.append(CheckResult(
        "pairing-bounded-by-star-seminorms", worst_pair <= 1e-8,
        {"worst_relative_excess": worst_pair}))

    worst_vec = 0.0
    rng = np.random.default_rng(0xA11CE)
    for phi, rep in zip(family.dense_forms(alg, tol), family.context(alg, tol).reps):
        c0 = rng.standard_normal(alg.a0_dim) + 1j * rng.standard_normal(alg.a0_dim)
        full = np.zeros(alg.dim, dtype=complex)
        for slot, cc in zip(alg.a0_indices, c0):
            full[slot] = cc
        x = alg.element(full)
        xi = rep.lam @ c0
        Fx = twisted_set(BoundedFormSet([phi], label=phi.label), x, tol)
        for a in probes[:m]:
            lhs = max(float(np.linalg.norm(rep.rep_matrix(a) @ xi)),
                      float(np.linalg.norm(rep.rep_matrix(a.star()) @ xi)))
            rhs = p_star(Fx, a)
            worst_vec = max(worst_vec, (lhs - rhs) / max(rhs, 1.0))
    report.consequences.append(CheckResult(
        "vector-bound-for-twisted-sets", worst_vec <= 1e-8,
        {"worst_relative_excess": worst_vec}))

    ext = extract_bounded_algebra(family, alg, probes[:m], tol)
    report.consequences.append(CheckResult(
        "bounded-part-norm-laws", ext["all_passed"],
        {"skipped_products": ext["skipped_products"]}))
    return report
