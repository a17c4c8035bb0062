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

from .algebra import Element, QuasiAlgebraInstance, hermitian_mask, scaled_rows, spectral_norm
from .errors import (AmbiguousProduct, CharacterizationMismatch, FamilyNotBalanced,
                     NotSufficient, NotWellDefined, ProductOverflow)
from .forms import FormFamily, _hermitian_part, _right_mults
from .report import CheckResult, pairs
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
            out["witness_coeffs"] = pairs(self.witness_coeffs)
            out["witness_value"] = pairs(self.witness_value)
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
    # the pairing is linear in a: decide on a / s, report values times s
    X, s = scaled_rows(a.coeffs[None])
    a, s = alg.element(X[0]), float(s[0])
    AX = (_right_mults(alg, tol) @ a.coeffs).T
    a0_idx = np.asarray(alg.a0_indices)
    report = ConeReport(member=True)
    ctx = family.context(alg, tol)
    for phi, G, (full, _) in zip(family.seeds, ctx.seed_grams, ctx.sections):
        # the pairing matrix Q[j, k] = phi(a.x_k, x_j) over the subalgebra basis
        Q = (G @ AX)[a0_idx, :]
        scale = max(spectral_norm(Q),
                    full.wmax * max(a.norm_frobenius(), 1.0) * 1e-8, 1e-300)
        K = (Q - Q.conj().T) / 2.0
        herm_res = spectral_norm(K) / scale
        H = (Q + Q.conj().T) / 2.0
        w, V = np.linalg.eigh(H)
        min_eig = float(w.min()) if w.size else 0.0
        rel = min_eig / scale
        ok = herm_res <= tol.psd and rel >= -tol.psd
        report.per_generator.append({
            "label": phi.label, "herm_residual": herm_res,
            "min_eig": s * min_eig, "relative_margin": rel, "passed": ok,
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
            report.witness_value = s * complex(x0.conj() @ Q @ x0)
            report.witness_generator = phi.label
        report.member = report.member and ok
    return report


def cone_witness_element(report: ConeReport, alg: QuasiAlgebraInstance) -> Element:
    """Lift the subalgebra witness coordinates back to an algebra element."""
    full = np.zeros(alg.dim, dtype=complex)
    full[list(alg.a0_indices)] = report.witness_coeffs
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
        gn = spectral_norm(M)
        if gn > 0:
            blocks.append(M / gn)
    N = _null_basis(np.vstack(blocks), tol.rank)
    dim_null = N.shape[1]
    suff_dim_null = family.context(alg, tol).separation[0]
    return {
        "dim": dim_null,
        "basis_coeffs": list(N.T),
        "matches_sufficiency": (dim_null == 0) == (suff_dim_null == 0),
        "sufficiency_dim_null": suff_dim_null,
    }


@dataclass
class NormReport:
    value: float
    routes: dict
    per_form: list
    hermitian: bool

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "routes": dict(self.routes),
            "hermitian": self.hermitian,
            "per_form": self.per_form,
        }


_ROUTES = ("gns", "pencil", "quadratic")


def m_bounded_norm(a: Element, family: FormFamily, alg: QuasiAlgebraInstance,
                   tol: ToleranceConfig = DEFAULT_TOL) -> NormReport:
    """Norm of a bounded element, computed redundantly and cross-checked.

    Requires a sufficient family.  The pencil route runs over every
    generator; twisted members never raise the Rayleigh quotient because
    twisting restricts the admissible vectors, so generators settle the
    supremum.  The representation route runs over the generators with a
    dense quotient.  Routes that disagree beyond the cross-check tolerance,
    or hold a NaN, raise ``CharacterizationMismatch``.
    """
    s, values, herm, per_seed = _norm_routes(a.coeffs[None], family, alg, tol)
    s, herm = s.item(), bool(herm[0])
    routes = {name: s * v for name, v in zip(_ROUTES, values[:3 if herm else 2, 0].tolist())}
    per_form = [{"label": label, "pencil": s * pen.item(),
                 "quadratic": s * q.item() if herm else None, "null_leak": leak.item()}
                for label, pen, q, leak in per_seed]
    return NormReport(value=routes["pencil"], routes=routes, per_form=per_form, hermitian=herm)


def m_bounded_values(C, family: FormFamily, alg: QuasiAlgebraInstance,
                     tol: ToleranceConfig = DEFAULT_TOL):
    """``(values, hermitian)`` for the rows of a (k, d) coefficient stack: the
    ``value`` and ``hermitian`` fields of each row's ``m_bounded_norm``, as
    arrays.  Each row is scaled on its own, and each route takes one batched
    LAPACK call per seed for the whole stack.  The first row whose routes
    disagree, or hold a NaN, raises as ``m_bounded_norm`` does on that row."""
    s, values, herm, _ = _norm_routes(C, family, alg, tol)
    return s * values[1], herm


def _norm_routes(C, family: FormFamily, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """``(s, values, hermitian, per_seed)`` for the rows of C: each row's scale
    s, the (3, k) route values on the scaled rows (gns, pencil, quadratic), the
    Hermitian mask, and per seed (label, pencil, quadratic, leak) arrays.  A
    leak is its block's Frobenius norm where that certifies the pencil
    finite, and its largest |eigenvalue| elsewhere.  Raises for an
    insufficient family and for the first row whose routes disagree or hold
    a NaN."""
    ctx = family.context(alg, tol)
    dim_null = ctx.separation[0]
    if dim_null:
        raise NotSufficient(
            f"family {family.label!r} does not separate points "
            f"(null dimension {dim_null}); the norm is not definite")

    # the norm is homogeneous: compute on each row / s and scale back
    X, s = scaled_rows(C)
    mats = (X @ np.reshape(alg.basis, (alg.dim, -1))).reshape(-1, alg.n, alg.n)
    herm, fro2 = hermitian_mask(mats), np.linalg.norm(mats, axis=(1, 2)) ** 2
    # a row with a non-finite part runs as zero, and its routes read NaN below
    nonfinite = ~np.isfinite(X).all(axis=1)
    if nonfinite.any():
        X = np.where(nonfinite[:, None], 0.0, X)
    # AX[r] = (R0 @ x_r).T: column j holds the coefficients of x_r.x_j
    AX = (_right_mults(alg, tol) @ X.T).transpose(2, 1, 0)
    a0_idx, hix = np.asarray(alg.a0_indices), np.flatnonzero(herm)

    pencil, quad, per_seed = np.zeros(len(X)), np.zeros(len(X)), []
    for phi, G, (full, sec) in zip(family.seeds, ctx.seed_grams, ctx.sections):
        if not sec.w.size:
            continue
        GAX = G @ AX
        T = _hermitian_part(AX.conj().transpose(0, 2, 1) @ GAX)
        # the leak L = N^H T N on the dropped directions, at the scale the
        # block's rank was cut at.  |L|_2 <= |L|_F, so a row whose Frobenius
        # value is below the threshold (with room for eigvalsh's rounding)
        # is certified finite, and only the others take an eigensolve
        wmax, slack = max(full.wmax, 1e-300), tol.psd * np.maximum(1.0, fro2)
        L = _hermitian_part(sec.null_dirs.conj().T @ T @ sec.null_dirs)
        leak_rel = np.linalg.norm(L, axis=(1, 2)) / wmax
        over = np.flatnonzero(leak_rel > slack * (1.0 - 1e-12))
        if over.size:
            leak_rel[over] = np.abs(np.linalg.eigvalsh(L[over])).max(axis=-1, initial=0.0) / wmax
        pen = np.where(leak_rel > slack, np.inf, sec.gain(T))
        q = np.zeros_like(pencil)
        if hix.size:
            Qs = sec.section.conj().T @ GAX[hix][:, a0_idx, :] @ sec.section
            q[hix] = np.abs(np.linalg.eigvalsh(_hermitian_part(Qs))).max(axis=1, initial=0.0)
        # np.maximum, unlike max, lets a NaN through to the check below
        pencil, quad = np.maximum(pencil, pen), np.maximum(quad, q)
        per_seed.append((phi.label, pen, q, leak_rel))
    gns = np.zeros_like(pencil)
    for rep in ctx.reps:
        gns = np.maximum(gns, rep.rep_norm(X))

    # an infinite pencil means unbounded, and the other routes cannot follow it;
    # rows that are not Hermitian have no quadratic route to check
    finite = np.isfinite(pencil)
    ref = np.where(finite, pencil, 0.0)
    values = np.stack([gns, pencil, np.where(herm, quad, ref)])
    values[:, nonfinite] = np.nan
    off = np.abs(values - ref) > tol.cross_check * np.maximum(1.0, ref)
    bad = np.flatnonzero(np.isnan(values).any(axis=0) | (finite & off.any(axis=0)))
    if bad.size:
        r = int(bad[0])
        raise CharacterizationMismatch({name: float(s[r]) * v for name, v in
                                        zip(_ROUTES, values[:3 if herm[r] else 2, r].tolist())})
    return s, values, herm, per_seed


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
    """``(element, report)`` for a o b, or the error ``weak_products`` reports."""
    out = weak_products(a.coeffs[None], b.coeffs[None], family, alg, tol)[0]
    if isinstance(out, Exception):
        raise out
    return out


def weak_products(A, B, family: FormFamily, alg: QuasiAlgebraInstance,
                  tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """For each row pair (a, b) of two (k, d) coefficient stacks, solve for c
    with phi(c.x, y) = phi(b.x, a*.y) over the family, against the system's
    cached SVD.  Rank deficiency raises ``AmbiguousProduct`` for the whole
    stack before any residual is inspected, because a least-squares solution
    would silently pick one representative of a coset.  Pairs with the same
    right factor share its products with the Grams.  Entry i is
    ``(element, report)``, or the ``NotWellDefined`` of an inconsistent pair
    (with NaN residuals for a non-finite factor) or the ``ProductOverflow``
    of a product beyond the float range.
    """
    ctx = family.context(alg, tol)
    M, Uh, s, Vh = ctx.weak_system
    smax = float(s.max(initial=0.0))
    smin = float(s.min()) if s.size else 0.0
    if M.shape[0] < alg.dim or smin <= tol.rank * max(smax, 1e-300):
        # a thin Vh holds every right singular vector unless M is wide
        Vh = np.linalg.svd(M)[2] if M.shape[0] < alg.dim else Vh
        raise AmbiguousProduct(Vh.conj().T[:, -1])

    # bilinear in (a*, b): solve each pair scaled by 2^-k to largest parts in [1/2, 1);
    # a pair with a non-finite factor runs as zero, and its residual reads NaN below
    Y = (alg.adjoints(A), np.asarray(B, dtype=complex))
    bad = ~np.isfinite(np.hstack(Y)).all(axis=1)
    parts = [np.ascontiguousarray(np.where(bad[:, None], 0.0, y), dtype=complex).view(float)
             for y in Y]
    k = [np.frexp(np.abs(y).max(axis=1, initial=0.0))[1] for y in parts]
    R0 = _right_mults(alg, tol)
    AS, BX = ((R0 @ np.ldexp(y, -ky[:, None]).view(complex).T).transpose(2, 0, 1)
              for y, ky in zip(parts, k))
    # column p, row (member, j, k): phi(b.x_j, a*.x_k) / |phi|.  The product
    # (b.x_j) u^T is taken once per member and distinct right factor, told
    # apart by the bytes of its table b.x_j; each pair's block is finished
    # from it, for at most 2^13 entries at once, which bounds the memory held
    BX = np.ascontiguousarray(BX)
    rows = BX.reshape(len(BX), alg.a0_dim * alg.dim)
    _, first, inv = np.unique(rows.view(np.dtype((np.void, rows.strides[0]))).ravel(),
                              return_index=True, return_inverse=True)
    labels, units = ctx.nonzero
    BXU = np.stack([BX[first] @ u.T for u in units], axis=1)
    ASh, step = AS.conj().transpose(0, 2, 1), max(1, 2 ** 13 // M.shape[0])
    c, resid = np.empty((alg.dim, len(AS)), dtype=complex), np.empty((2, len(AS)))
    for sl in (slice(lo, lo + step) for lo in range(0, len(AS), step)):
        rt = (BXU[inv[sl]] @ ASh[sl, None]).reshape(-1, M.shape[0])
        c[:, sl] = Vh.conj().T @ ((Uh @ rt.T) / s[:, None])
        # column norms as sums of squares of the real and imaginary parts
        D = (M @ c[:, sl] - rt.T).view(float).reshape(M.shape[0], -1, 2)
        R = rt.view(float)
        resid[:, sl] = np.sqrt([np.einsum("ijk,ijk->j", D, D), np.einsum("ij,ij->i", R, R)])
    resid[:, bad] = np.nan
    e = k[0] + k[1]
    with np.errstate(over="ignore"):
        c = np.ldexp(np.ascontiguousarray(c.T).view(float), e[:, None]).view(complex)
        back = np.ldexp(resid, e).T
    out = []
    for ci, (res, rn), br, ei in zip(c, resid.T, back, e.tolist()):
        # written so that a NaN residual fails too
        if not res <= tol.weak * max(rn, 1e-300):
            out.append(NotWellDefined(*br))
        elif not (np.isfinite(ci).all() and np.isfinite(br).all()):
            out.append(ProductOverflow(f"weak product overflows the float range: scale 2^{ei}"))
        else:
            out.append((alg.element(ci), WeakProductReport(
                *br.tolist(), smin, smax, M.shape[0], list(labels))))
    return out


def check_condition_product(family: FormFamily, alg: QuasiAlgebraInstance,
                            tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Whether products of represented basis elements stay inside the represented span.

    For each of the d^2 ordered basis pairs the product of representation
    matrices must be expressible as the representation of some algebra
    element, jointly across the dense generators.  The products come from
    one matrix product per representation, and every pair is solved at
    once for lstsq's minimum-norm solution, from one thin SVD of the
    stacked representation map cut where lstsq cuts.  Reports the failing
    pairs, if any.
    """
    ctx = family.context(alg, tol)
    M = np.vstack(ctx.rep_blocks)
    d = alg.dim
    left, right = np.divmod(np.arange(d ** 2), d)

    # one column per pair: the products pi(a_i) pi(a_j) across the representations,
    # all pairs of one representation as one (d r, r) @ (r, d r) product
    target = np.hstack([(P.reshape(d * r, r) @ P.transpose(1, 0, 2).reshape(r, d * r))
                        .reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d * d, r * r)
                        for P, r in ((rep.rep_mats, rep.dim_H) for rep in ctx.reps)]).T
    # lstsq's minimum-norm solution from the thin SVD of M, cut where lstsq cuts
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    keep = s > np.finfo(float).eps * max(M.shape) * s.max(initial=0.0)
    C = Vh[keep].conj().T @ ((U[:, keep].conj().T @ target) / s[keep, None])
    rel = (np.linalg.norm(M @ C - target, axis=0)
           / np.maximum(np.linalg.norm(target, axis=0), 1.0))
    worst = float(rel.max(initial=0.0))
    failures = [{"left": i, "right": j, "relative_residual": v}
                for i, j, v in zip(left.tolist(), right.tolist(), rel.tolist()) if v > tol.weak]
    return {
        "holds": not failures,
        "n_pairs": len(left),
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
            "basis_coeffs": pairs(self.basis_coeffs),
            "checks": [c.as_dict() for c in self.checks],
        }


def _null_basis(M, rank_tol):
    """Orthonormal null-space basis columns of a stacked map."""
    if M.shape[0] > M.shape[1]:
        # a tall map has the right singular pairs of its square triangle R = Q^H M
        M = np.linalg.qr(M, mode="r")
    # a square map's null directions are all in the thin Vh; a wide one needs the full Vh
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    smax = float(s.max(initial=0.0))
    rank = int(np.sum(s > rank_tol * max(smax, 1e-300)))
    return Vh.conj().T[:, rank:]


def _same_subspace(N1, N2, tol_val):
    if N1.shape[1] != N2.shape[1]:
        return False, float("inf")
    if N1.shape[1] == 0:
        return True, 0.0
    gap = spectral_norm(N1 @ N1.conj().T - N2 @ N2.conj().T)
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
        blocks = [B / bn for B in ctx.rep_blocks if (bn := spectral_norm(B)) > 0]
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
    inequality (over pairs i < j: a sum is symmetric, and a_i + a_i only
    doubles a_i's norm), submultiplicativity across weak products, and the
    square-of-norm identity for a* o a.  Pairs whose weak product does not
    resolve are recorded and skipped.  The products are solved first, so
    every norm the laws need is taken in one stack.
    """
    P = np.reshape([p.coeffs for p in probes], (len(probes), alg.dim))
    Ps = alg.adjoints(P)
    n, m = len(P), min(len(P), 8)
    left, right = np.divmod(np.arange(m * m), m)
    # the triangle law over i < j: the sum is symmetric, and 2 a_i scales to a_i
    ti, tj = np.triu_indices(m, 1)

    # the pairs (i, j), then the squares a_i* o a_i
    try:
        prods = weak_products(np.vstack([P[left], Ps[:m]]), np.vstack([P[right], P[:m]]),
                              family, alg, tol)
    except AmbiguousProduct:
        prods = [None] * (m * m + m)
    for out in prods:
        if isinstance(out, ProductOverflow):
            raise out
    kept = [(idx, out[0].coeffs) for idx, out in enumerate(prods) if isinstance(out, tuple)]

    # one stack: the probes, their adjoints, the sums over i < j, the products
    values, herm = m_bounded_values(np.vstack([P, Ps, P[ti] + P[tj], *(c for _, c in kept)]),
                                    family, alg, tol)
    values = values.tolist()
    norms, sums, found = values[:n], values[2 * n:2 * n + len(ti)], values[2 * n + len(ti):]
    table = [{"probe": idx, "norm": v, "hermitian": bool(h)}
             for idx, (v, h) in enumerate(zip(norms, herm))]

    # max([0.0, *values]) skips a NaN the way a running max from 0.0 does
    worst_star = max([0.0, *(abs(value - v) / max(v, 1.0)
                             for value, v in zip(values[n:2 * n], norms))])
    bounds = [norms[i] + norms[j] for i, j in zip(ti, tj)]
    worst_tri = max([0.0, *((value - b) / max(b, 1.0) for value, b in zip(sums, bounds))])
    worst_sub = worst_cstar = 0.0
    for (idx, _), value in zip(kept, found):
        if idx < m * m:
            bound = norms[left[idx]] * norms[right[idx]]
            worst_sub = max(worst_sub, (value - bound) / max(bound, 1.0))
        else:
            sq = norms[idx - m * m] ** 2
            worst_cstar = max(worst_cstar, abs(value - sq) / max(sq, 1.0))
    checks = [
        CheckResult("star-isometry", worst_star <= tol.cross_check * 10,
                    {"worst_relative_gap": worst_star}),
        CheckResult("triangle", worst_tri <= tol.cross_check * 10,
                    {"worst_relative_excess": worst_tri}),
        CheckResult("submultiplicative", worst_sub <= tol.cross_check * 10,
                    {"worst_relative_excess": worst_sub}),
        CheckResult("square-identity", worst_cstar <= tol.cstar,
                    {"worst_relative_gap": worst_cstar},
                    note="norm of a*oa equals the squared norm of a"),
    ]
    return {
        "norms": table,
        "checks": [c.as_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
        "skipped_products": len(prods) - len(kept),
    }
