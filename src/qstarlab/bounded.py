"""Order structure and bounded elements relative to a form family.

The positive wedge collects elements a with phi(a.x, x) >= 0 for every
subalgebra element x and every family member; since a twisted condition
is a restriction of the untwisted one, checking the generators settles
the whole balanced family.  An element is bounded when the quotient
action of a is bounded for every family member, and its norm is computed
by two routes, plus a third on Hermitian elements:

* ``gns``:       largest operator norm of the representation matrices,
* ``pencil``:    largest generalized Rayleigh quotient
                 phi(a.x, a.x) / phi(x, x) over the subalgebra,
* ``quadratic``: largest |phi(a.x, x)| / phi(x, x), Hermitian elements
                 only.  There it equals the norm; elsewhere it is the
                 numerical radius of the action, which only bounds the
                 norm within a factor two, so it is not computed.

Routes are computed on the element scaled to unit largest coefficient,
cross-checked, and scaled back; a mismatch or a NaN raises instead of
guessing.
Weak products solve phi(c.x, y) = phi(b.x, a*.y) for c by least squares
over every family member, with rank-deficiency reported as ambiguity
before any residual test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Element, QuasiAlgebraInstance
from .errors import (AmbiguousProduct, CharacterizationMismatch, FamilyNotBalanced,
                     NotSufficient, NotWellDefined)
from .forms import FormFamily, _right_mults
from .report import CheckResult
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass
class ConeReport:
    member: bool
    per_generator: list = field(default_factory=list)
    witness_coeffs: object = None
    witness_value: complex = 0.0
    witness_generator: str = ""

    def as_dict(self) -> dict:
        out = {"member": self.member, "per_generator": self.per_generator}
        if self.witness_coeffs is not None:
            out["witness_coeffs"] = [[float(z.real), float(z.imag)]
                                     for z in self.witness_coeffs]
            out["witness_value"] = [float(self.witness_value.real),
                                    float(self.witness_value.imag)]
            out["witness_generator"] = self.witness_generator
        return out


def cone_membership(a: Element, family: FormFamily, alg: QuasiAlgebraInstance,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ConeReport:
    """Decide membership of ``a`` in the positive wedge of the family.

    For each generator the pairing matrix must be Hermitian and positive
    semidefinite within tolerance.  On failure the report carries a
    subalgebra witness x with phi(a.x, x) not essentially real or negative.
    """
    if not family.balanced:
        raise FamilyNotBalanced("the positive wedge is defined for balanced families")
    AX = (_right_mults(alg, tol) @ a.coeffs).T
    a0_idx = np.asarray(alg.a0_indices)
    report = ConeReport(member=True)
    for phi, G in zip(family.seeds, family.context(alg, tol).seed_grams):
        # the pairing matrix Q[j, k] = phi(a.x_k, x_j) over the subalgebra basis
        Q = (G @ AX)[a0_idx, :]
        scale = max(float(np.linalg.norm(Q, 2)),
                    float(np.linalg.norm(G, 2)) * max(a.norm_frobenius(), 1.0) * 1e-8,
                    1e-300)
        K = (Q - Q.conj().T) / 2.0
        herm_res = float(np.linalg.norm(K, 2)) / scale
        H = (Q + Q.conj().T) / 2.0
        w, V = np.linalg.eigh(H)
        min_eig = float(w.min()) if w.size else 0.0
        rel = min_eig / scale
        ok = herm_res <= tol.psd and rel >= -tol.psd
        report.per_generator.append({
            "label": phi.label, "herm_residual": herm_res,
            "min_eig": min_eig, "relative_margin": rel, "passed": ok,
        })
        if not ok and report.witness_coeffs is None:
            if herm_res > tol.psd:
                Kh = K / 1j
                wk, Vk = np.linalg.eigh((Kh + Kh.conj().T) / 2.0)
                pick = int(np.argmax(np.abs(wk)))
                x0 = Vk[:, pick]
            else:
                x0 = V[:, int(np.argmin(w))]
            report.witness_coeffs = x0
            report.witness_value = complex(x0.conj() @ Q @ x0)
            report.witness_generator = phi.label
        report.member = report.member and ok
    return report


def cone_witness_element(report: ConeReport, alg: QuasiAlgebraInstance) -> Element:
    """Lift the subalgebra witness coordinates back to an algebra element."""
    full = np.zeros(alg.dim, dtype=complex)
    for slot, coeff in zip(alg.a0_indices, report.witness_coeffs):
        full[slot] = coeff
    return alg.element(full)


def cone_intersection_null(family: FormFamily, alg: QuasiAlgebraInstance,
                           tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Basis of wedge intersect minus-wedge, which is the joint degeneracy space.

    An element sits in both wedges exactly when every pairing matrix
    vanishes, so the intersection is the kernel of the stacked linear maps
    a -> vec(Q_phi(a)).  Its triviality is equivalent to sufficiency.
    """
    if not family.balanced:
        raise FamilyNotBalanced("the positive wedge is defined for balanced families")
    R0 = _right_mults(alg, tol)
    n0 = alg.a0_dim
    blocks = []
    for G in family.context(alg, tol).seed_grams:
        # column i is vec(Q) for the basis element a_i: Q[j, k] = GR[k, j, i]
        GR = G[np.asarray(alg.a0_indices), :] @ R0
        M = GR.transpose(1, 0, 2).reshape(n0 * n0, alg.dim)
        gn = float(np.linalg.norm(M, 2))
        if gn > 0:
            blocks.append(M / gn)
    M = np.vstack(blocks)
    _, s, Vh = np.linalg.svd(M)
    smax = float(s.max(initial=0.0))
    ncols = M.shape[1]
    rank = int(np.sum(s > tol.rank * max(smax, 1e-300)))
    dim_null = ncols - rank
    basis = [Vh.conj().T[:, k] for k in range(rank, ncols)]
    suff = family.sufficiency(alg, tol)
    return {
        "dim": dim_null,
        "basis_coeffs": basis,
        "matches_sufficiency": (dim_null == 0) == suff.sufficient,
        "sufficiency_dim_null": suff.dim_null,
    }


@dataclass
class NormReport:
    value: float
    routes: dict
    per_form: list
    hermitian: bool
    checks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "routes": dict(self.routes),
            "hermitian": self.hermitian,
            "per_form": self.per_form,
            "checks": [c.as_dict() for c in self.checks],
        }


def m_bounded_norm(a: Element, family: FormFamily, alg: QuasiAlgebraInstance,
                   tol: ToleranceConfig = DEFAULT_TOL) -> NormReport:
    """Norm of a bounded element, computed redundantly and cross-checked.

    Requires a sufficient family.  The pencil route runs over every
    generator; twisted members never raise the Rayleigh quotient because
    twisting restricts the admissible vectors, so generators settle the
    supremum.  The representation route runs over the generators with a
    dense quotient.  Disagreement beyond the cross-check tolerance, or a
    NaN on any route, raises ``CharacterizationMismatch``.
    """
    suff = family.sufficiency(alg, tol)
    if not suff.sufficient:
        raise NotSufficient(
            f"family {family.label!r} does not separate points "
            f"(null dimension {suff.dim_null}); the norm is not definite")

    # the norm is homogeneous: compute on a / s and scale back, so neither
    # tiny nor huge coefficients underflow or overflow.  s is the largest
    # real or imaginary part, which unlike |coeff| cannot overflow, and the
    # parts are divided as reals, since complex division by a subnormal can
    parts = a.coeffs.view(float)
    s = float(np.abs(parts).max(initial=0.0)) or 1.0
    a = alg.element((parts / s).view(complex))
    herm = a.is_hermitian()
    ctx = family.context(alg, tol)
    AX = (_right_mults(alg, tol) @ a.coeffs).T
    a0_idx = np.asarray(alg.a0_indices)

    per_form = []
    pencil_vals = []
    quad_vals = []
    for phi, G, sec in zip(family.seeds, ctx.seed_grams, ctx.sections):
        if not sec.w.size:
            continue
        T = AX.conj().T @ G @ AX
        T = (T + T.conj().T) / 2.0

        leak_rel = sec.leak(T) / max(sec.wmax, 1e-300)
        if leak_rel > tol.psd * max(1.0, a.norm_frobenius() ** 2):
            pencil = float("inf")
        else:
            pencil = sec.gain(T)
        quad = None
        if herm:
            Qs = sec.section.conj().T @ (G @ AX)[a0_idx, :] @ sec.section
            Hq = (Qs + Qs.conj().T) / 2.0
            quad = float(np.abs(np.linalg.eigvalsh(Hq)).max(initial=0.0))
            quad_vals.append(quad)
        per_form.append({
            "label": phi.label, "pencil": s * pencil,
            "quadratic": None if quad is None else s * quad, "null_leak": leak_rel,
        })
        pencil_vals.append(pencil)

    # np.max, unlike max, lets a NaN through to the check below
    pencil_val = float(np.max(pencil_vals, initial=0.0))
    routes = {"gns": float(np.max([rep.rep_norm(a) for rep in ctx.reps], initial=0.0)),
              "pencil": pencil_val}
    if herm:
        routes["quadratic"] = float(np.max(quad_vals, initial=0.0))

    # an infinite pencil means unbounded, and the other routes cannot follow it
    scale = max(1.0, pencil_val)
    bad = any(np.isnan(v) for v in routes.values()) or (np.isfinite(pencil_val) and any(
        abs(v - pencil_val) > tol.cross_check * scale for v in routes.values()))
    routes = {k: s * v for k, v in routes.items()}
    if bad:
        raise CharacterizationMismatch(routes)
    return NormReport(value=routes["pencil"], routes=routes, per_form=per_form,
                      hermitian=herm)


@dataclass
class WeakProductReport:
    residual: float
    rhs_norm: float
    sigma_min: float
    sigma_max: float
    n_rows: int
    forms_used: list

    def as_dict(self) -> dict:
        return {
            "residual": self.residual, "rhs_norm": self.rhs_norm,
            "sigma_min": self.sigma_min, "sigma_max": self.sigma_max,
            "n_rows": self.n_rows, "forms_used": list(self.forms_used),
        }


def weak_product(a: Element, b: Element, family: FormFamily, alg: QuasiAlgebraInstance,
                 tol: ToleranceConfig = DEFAULT_TOL):
    """Solve for c with phi(c.x, y) = phi(b.x, a*.y) over the family.

    Rank deficiency of the system raises ``AmbiguousProduct`` before any
    residual is inspected, because a least-squares solution would silently
    pick one representative of a coset.  An inconsistent system raises
    ``NotWellDefined``.  Returns ``(element, report)``.
    """
    ctx = family.context(alg, tol)
    M, U, s, Vh = ctx.weak_system
    smax = float(s.max(initial=0.0))
    smin = float(s.min()) if s.size else 0.0
    if M.shape[0] < alg.dim or smin <= tol.rank * max(smax, 1e-300):
        _, _, Vh = np.linalg.svd(M)
        raise AmbiguousProduct(Vh.conj().T[:, -1])

    # right-hand side (member, j, k): phi(b.x_j, a*.x_k) / |phi|
    R0 = _right_mults(alg, tol)
    AS = R0 @ a.star().coeffs
    BX = R0 @ b.coeffs
    labels, units = ctx.nonzero
    r = (AS.conj() @ units @ BX.T).transpose(0, 2, 1).reshape(-1)
    c = Vh.conj().T @ ((U.conj().T @ r) / s)
    resid = float(np.linalg.norm(M @ c - r))
    rnorm = float(np.linalg.norm(r))
    if resid > tol.weak * max(rnorm, 1e-300):
        raise NotWellDefined(resid, rnorm)
    report = WeakProductReport(
        residual=resid, rhs_norm=rnorm, sigma_min=smin, sigma_max=smax,
        n_rows=M.shape[0], forms_used=list(labels))
    return alg.element(c), report


def check_condition_product(family: FormFamily, alg: QuasiAlgebraInstance,
                            tol: ToleranceConfig = DEFAULT_TOL,
                            probes=None, max_pairs: int = 400) -> dict:
    """Whether products of represented probes stay inside the represented span.

    For each ordered probe pair the product of representation matrices must
    be expressible as the representation of some algebra element, jointly
    across the dense generators.  Reports the failing pairs, if any.
    """
    ctx = family.context(alg, tol)
    if probes is None:
        probes = [alg.basis_element(i) for i in range(alg.dim)]
    coeffs = np.reshape([p.coeffs for p in probes], (len(probes), alg.dim))
    M = np.vstack(ctx.rep_blocks)

    pairs = [(i, j) for i in range(len(probes)) for j in range(len(probes))]
    if len(pairs) > max_pairs:
        stride = max(1, len(pairs) // max_pairs)
        pairs = pairs[::stride][:max_pairs]
    left, right = [i for i, _ in pairs], [j for _, j in pairs]

    # one column per pair: the products pi(p_i) pi(p_j) across the representations
    targets = []
    for rep in ctx.reps:
        P = np.tensordot(coeffs, np.stack(rep.rep_mats), axes=1)
        targets.append((P[left] @ P[right]).reshape(len(pairs), rep.dim_H ** 2))
    target = np.hstack(targets).T
    C, *_ = np.linalg.lstsq(M, target, rcond=None)
    rel = (np.linalg.norm(M @ C - target, axis=0)
           / np.maximum(np.linalg.norm(target, axis=0), 1.0))
    worst = float(rel.max(initial=0.0))
    failures = [{"left": i, "right": j, "relative_residual": float(v)}
                for (i, j), v in zip(pairs, rel) if v > tol.weak]
    return {
        "holds": not failures,
        "n_pairs": len(pairs),
        "n_failures": len(failures),
        "worst_relative_residual": worst,
        "failures": failures[:10],
    }


@dataclass
class RadicalReport:
    dim: int
    basis_coeffs: list
    checks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis_coeffs": [[[float(z.real), float(z.imag)] for z in b]
                             for b in self.basis_coeffs],
            "checks": [c.as_dict() for c in self.checks],
        }


def _null_basis(M, rank_tol):
    """Orthonormal null-space basis columns of a stacked map."""
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    smax = float(s.max(initial=0.0))
    rank = int(np.sum(s > rank_tol * max(smax, 1e-300)))
    return Vh.conj().T[:, rank:]


def _same_subspace(N1, N2, tol_val):
    if N1.shape[1] != N2.shape[1]:
        return False, float("inf")
    if N1.shape[1] == 0:
        return True, 0.0
    gap = float(np.linalg.norm(N1 @ N1.conj().T - N2 @ N2.conj().T, 2))
    return gap <= tol_val, gap


def radical(family: FormFamily, alg: QuasiAlgebraInstance,
            tol: ToleranceConfig = DEFAULT_TOL) -> RadicalReport:
    """Joint degeneracy space of the effective family, computed three ways.

    The primary route takes the kernel of the summed normalized Gram
    matrices.  A second route stacks the Gram matrices and reads the null
    space from the singular vectors.  A third route intersects the kernels
    of the representation maps of the dense generators; that one coincides
    with the degeneracy space only under the balanced closure policy, so
    its agreement check is asserted only then.
    """
    ctx = family.context(alg, tol)
    _, V, mask = ctx.gram_sum
    N1 = V[:, mask]

    # PSD kernels intersect exactly where the stacked square roots vanish
    N2 = _null_basis(ctx.nonzero[1].reshape(-1, alg.dim), np.sqrt(tol.rank))

    report = RadicalReport(dim=int(N1.shape[1]),
                           basis_coeffs=[N1[:, k] for k in range(N1.shape[1])])
    same12, gap12 = _same_subspace(N1, N2, 1e-6)
    report.checks.append(CheckResult(
        "gram-sum-vs-stacked", same12, {"gap": gap12}))

    if ctx.dense_seeds:
        blocks = []
        for B in ctx.rep_blocks:
            bn = float(np.linalg.norm(B, 2))
            if bn > 0:
                blocks.append(B / bn)
        N3 = _null_basis(np.vstack(blocks), tol.rank)
        same13, gap13 = _same_subspace(N1, N3, 1e-6)
        report.checks.append(CheckResult(
            "gram-vs-representation-kernels",
            same13 if family.balanced else True,
            {"rep_kernel_dim": int(N3.shape[1]), "gap": gap13,
             "asserted": family.balanced},
            note="representation kernels match the degeneracy space only for "
                 "balanced families"))
    return report


def extract_bounded_algebra(family: FormFamily, alg: QuasiAlgebraInstance,
                            probes, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Norm table plus normed-algebra laws on a probe set.

    Verifies, over the probes: star invariance of the norm, the triangle
    inequality, submultiplicativity across weak products, and the
    square-of-norm identity for a* o a.  Pairs whose weak product does not
    resolve are recorded and skipped.
    """
    table = []
    norms = {}
    for idx, p in enumerate(probes):
        rep = m_bounded_norm(p, family, alg, tol)
        norms[idx] = rep.value
        table.append({"probe": idx, "norm": rep.value, "hermitian": rep.hermitian})

    checks = []
    worst_star = 0.0
    for idx, p in enumerate(probes):
        ns = m_bounded_norm(p.star(), family, alg, tol).value
        scale = max(norms[idx], 1.0)
        worst_star = max(worst_star, abs(ns - norms[idx]) / scale)
    checks.append(CheckResult(
        "star-isometry", worst_star <= tol.cross_check * 10,
        {"worst_relative_gap": worst_star}))

    worst_tri = 0.0
    m = min(len(probes), 8)
    for i in range(m):
        for j in range(m):
            s = m_bounded_norm(probes[i] + probes[j], family, alg, tol).value
            excess = s - (norms[i] + norms[j])
            worst_tri = max(worst_tri, excess / max(norms[i] + norms[j], 1.0))
    checks.append(CheckResult(
        "triangle", worst_tri <= tol.cross_check * 10,
        {"worst_relative_excess": worst_tri}))

    worst_sub = 0.0
    worst_cstar = 0.0
    skipped = 0
    for i in range(m):
        for j in range(m):
            try:
                prod, _ = weak_product(probes[i], probes[j], family, alg, tol)
            except (AmbiguousProduct, NotWellDefined):
                skipped += 1
                continue
            np_ = m_bounded_norm(prod, family, alg, tol).value
            bound = norms[i] * norms[j]
            worst_sub = max(worst_sub, (np_ - bound) / max(bound, 1.0))
    for i in range(m):
        try:
            sq, _ = weak_product(probes[i].star(), probes[i], family, alg, tol)
        except (AmbiguousProduct, NotWellDefined):
            skipped += 1
            continue
        nsq = m_bounded_norm(sq, family, alg, tol).value
        worst_cstar = max(worst_cstar, abs(nsq - norms[i] ** 2) / max(norms[i] ** 2, 1.0))
    checks.append(CheckResult(
        "submultiplicative", worst_sub <= tol.cross_check * 10,
        {"worst_relative_excess": worst_sub}))
    checks.append(CheckResult(
        "square-identity", worst_cstar <= tol.cstar,
        {"worst_relative_gap": worst_cstar},
        note="norm of a*oa equals the squared norm of a"))
    return {
        "norms": table,
        "checks": [c.as_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
        "skipped_products": skipped,
    }
