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

from .algebra import Element, QuasiAlgebraInstance, scaled_rows, spectral_norm
from .bounded import check_condition_product, extract_bounded_algebra, m_bounded_values
from .errors import EmptyFamily, NotIps, NotSufficient
from .forms import FormFamily, _right_mult_of, _right_mults, _twisted_grams
from .report import CheckResult, all_passed, pairs
from .tolerances import DEFAULT_TOL, ToleranceConfig

SEMINORM_KINDS = ("upper", "lower", "star")
TOPOLOGY_KINDS = {"weak": "lower", "strong": "upper", "strong-star": "star"}


class BoundedFormSet:
    """A finite set of forms on one instance, used as the index set of
    seminorms and held as the (f, d, d) stack of the members' Gram matrices."""

    def __init__(self, grams, label: str = "F"):
        self.grams = np.asarray(grams)
        if not len(self.grams):
            raise EmptyFamily("a bounded form set needs at least one form")
        self.label = label

    @classmethod
    def from_family(cls, family: FormFamily, alg: QuasiAlgebraInstance,
                    tol: ToleranceConfig = DEFAULT_TOL):
        # an empty closure reaches the constructor's EmptyFamily check
        return cls(family.context(alg, tol).closure.grams, label=family.label)

    def __len__(self):
        return len(self.grams)


def seminorms(F: BoundedFormSet, alg: QuasiAlgebraInstance, C, kind: str):
    """The seminorm ``kind`` (in SEMINORM_KINDS or TOPOLOGY_KINDS) of each row
    of a (k, d) coefficient stack, against the set's stacked Gram matrices.
    Each row is evaluated on its own scaling and scaled back, so the values
    are homogeneous from tiny elements to huge ones."""
    kind = TOPOLOGY_KINDS.get(kind, kind)
    if kind == "star":
        both = seminorms(F, alg, np.vstack([C, alg.adjoints(C)]), "upper")
        return np.maximum(*both.reshape(2, -1))
    if kind not in SEMINORM_KINDS:
        raise ValueError(f"unknown seminorm kind {kind!r}")
    X, s = scaled_rows(C)
    G = F.grams
    if kind == "lower":
        # phi(a, e) = e^H G a is row e of G against a
        vals = np.abs(X @ G[:, alg.unit_index, :].T)
    else:
        vals = np.sqrt(np.maximum((X.conj() * (X @ G.transpose(0, 2, 1))).sum(axis=2).real.T, 0.0))
    with np.errstate(over="ignore"):
        return s * vals.max(axis=1, initial=0.0)


def seminorm_eval(F: BoundedFormSet, a: Element, kind: str) -> float:
    return float(seminorms(F, a.alg, a.coeffs[None], kind)[0])


def p_upper(F: BoundedFormSet, a: Element) -> float:
    """max over the set of phi(a, a)^(1/2)."""
    return seminorm_eval(F, a, "upper")


def p_lower(F: BoundedFormSet, a: Element) -> float:
    """max over the set of |phi(a, e)|."""
    return seminorm_eval(F, a, "lower")


def p_star(F: BoundedFormSet, a: Element) -> float:
    """max of the upper seminorm at a and at its adjoint."""
    return seminorm_eval(F, a, "star")


def gamma(F: BoundedFormSet, alg: QuasiAlgebraInstance) -> float:
    """max over the set of phi(e, e)^(1/2); controls lower by upper."""
    return p_upper(F, alg.unit)


def twisted_set(F: BoundedFormSet, x: Element,
                tol: ToleranceConfig = DEFAULT_TOL) -> BoundedFormSet:
    """The twists phi^x of the members, as Grams R_x^H G R_x; empty ones are kept."""
    return BoundedFormSet(_twisted_grams(F.grams, _right_mult_of(x, tol)[None]),
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
    null space makes the bound infinite.  Raises NotInA0 when x is outside
    the subalgebra, where a.x need not stay in the span.
    """
    R = _right_mult_of(x, tol)
    slack = tol.psd * max(1.0, spectral_norm(R) ** 2)
    ctx = family.context(alg, tol)
    worst = 0.0
    for G, sec in zip(ctx.closure.grams, ctx.member_sections):
        if sec.wmax == 0.0:
            continue
        L = _twisted_grams(G, R)
        if sec.leak(L) > slack * sec.wmax:
            return float("inf")
        worst = max(worst, float(sec.gain(L)))
    return worst


def compare_topologies(F1: BoundedFormSet, kind1: str, F2: BoundedFormSet, kind2: str,
                       probes) -> dict:
    """Empirical domination constants between two seminorms on a probe set.

    Reports the largest observed ratio in each direction; a ratio against
    an (essentially) vanishing denominator, one at most 1e-14 times the
    larger of the two values, counts as unbounded, and one of 1e8 or more
    counts as no domination.  The floor is relative, so scaling every form
    by c > 0 moves no relation.  This is a sampled comparison, not a proof.
    """
    probes = list(probes)
    values = []
    if probes:
        C, alg = np.array([a.coeffs for a in probes]), probes[0].alg
        values = zip(*(seminorms(F, alg, C, kind).tolist() for F, kind in ((F1, kind1), (F2, kind2))))
    c12 = 0.0
    c21 = 0.0
    for v1, v2 in values:
        floor = 1e-14 * max(v1, v2)
        if v2 <= floor:
            c12 = float("inf") if v1 > floor else c12
        else:
            c12 = max(c12, v1 / v2)
        if v1 <= floor:
            c21 = float("inf") if v2 > floor else c21
        else:
            c21 = max(c21, v2 / v1)
    dom12 = c12 < 1e8
    dom21 = c21 < 1e8
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


def _relative_excess(value, bound, floor=0.0) -> float:
    """The largest (value - bound) / max(bound, floor), at least 0: with no floor a
    zero bound requires a zero value, and reads inf otherwise; a NaN reads NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (value - bound) / np.maximum(bound, floor)
    return float(np.max(np.where((value == 0.0) & (bound == 0.0), 0.0, gap), initial=0.0))


def ga_star_check(family: FormFamily, alg: QuasiAlgebraInstance,
                  tol: ToleranceConfig = DEFAULT_TOL, probes=None) -> GaStarReport:
    """Qualify the pair (instance, family) and exercise what follows.

    Conditions: the family separates points; every subalgebra basis
    element acts boundedly on each quotient; representation products stay
    representable; completeness, which finite-dimensional coordinate
    spaces provide outright.  When all hold, the report also verifies the
    pairing bound against star seminorms, the vector bound for twisted
    sets, and the normed-algebra laws of the bounded part.  The first two read
    each excess relative to its own bound: a zero star bound requires a zero
    pairing, and a zero twisted-set bound a vector within rounding of zero.
    """
    report = GaStarReport(label=family.label, verdict=False)
    if probes is None:
        # the basis, then its adjoints, of which the checks below read the first six
        probes = [alg.basis_element(i) for i in range(min(alg.dim, 6))]
        probes += [p.star() for p in probes[:6 - len(probes)]]

    dim_null, margin, witness = family.context(alg, tol).separation
    sufficient = dim_null == 0
    sep_data = {"dim_null": dim_null, "margin": margin}
    if witness is not None:
        # the witness is a nonzero element invisible to every member
        coeffs, values = witness
        sep_data["witness_coeffs"] = pairs(coeffs)
        sep_data["max_witness_value"] = max(values.values(), default=0.0)
    report.conditions.append(CheckResult("separates-points", sufficient, sep_data))

    bounded_ok = sufficient
    max_norm = 0.0
    if sufficient:
        try:
            values = m_bounded_values(np.eye(alg.dim)[list(alg.a0_indices)], family, alg, tol)[0]
            max_norm = max([0.0, *values.tolist()])
            bounded_ok = bool(np.isfinite(values).all())
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
    m = min(len(probes), 6)
    P = np.reshape([a.coeffs for a in probes[:m]], (m, alg.dim))

    # a probe with a non-finite part enters the products as zero, without an
    # inf * 0, and its entries read NaN, which fails both checks below
    bad = ~np.isfinite(P).all(axis=1)
    Z = np.where(bad[:, None], 0.0, P)

    # |phi(p_i, p_j)| = |p_j^H G p_i| over every closure member at once
    ps = seminorms(F, alg, P, "star")
    bound = np.outer(ps, ps)
    pairing = np.abs(Z.conj() @ F.grams @ Z.T).max(axis=0, initial=0.0)
    pairing[bad] = pairing[:, bad] = np.nan
    worst_pair = _relative_excess(pairing, bound)
    report.consequences.append(CheckResult(
        "pairing-bounded-by-star-seminorms", worst_pair <= 1e-8,
        {"worst_relative_excess": worst_pair}))

    # for x = sum c0_j x_j: |pi(a) lam(x)| against the seed twisted by x
    excess = [0.0]
    rng = np.random.default_rng(0xA11CE)
    for rep in family.context(alg, tol).reps:
        c0 = rng.standard_normal(alg.a0_dim) + 1j * rng.standard_normal(alg.a0_dim)
        xi = rep.lam @ c0
        Gx = _twisted_grams(rep.gram, np.tensordot(c0, _right_mults(alg, tol), axes=1)[None])
        lhs = np.maximum(*(np.linalg.norm(rep.rep_matrix(Y) @ xi, axis=1)
                           for Y in (Z, alg.adjoints(Z))))
        lhs[bad] = np.nan
        rhs = seminorms(BoundedFormSet(Gx), alg, P, "star")
        # where the twisted seed vanishes both sides are rounding of d basis products,
        # d eps times the check's largest value: a smaller bound reads as that / 1e-8
        floor = alg.dim * np.finfo(float).eps / 1e-8 * np.max([lhs.max(initial=0.0), rhs.max(initial=0.0)])
        excess.append(_relative_excess(lhs, rhs, floor))
    worst_vec = float(np.max(excess))
    report.consequences.append(CheckResult(
        "vector-bound-for-twisted-sets", worst_vec <= 1e-8,
        {"worst_relative_excess": worst_vec}))

    ext = extract_bounded_algebra(family, alg, probes[:m], tol)
    report.consequences.append(CheckResult(
        "bounded-part-norm-laws", ext["all_passed"],
        {"skipped_products": ext["skipped_products"]}))
    return report
