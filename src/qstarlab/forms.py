"""Invariant positive sesquilinear forms and families thereof.

A form phi on the algebra is linear in its first argument and conjugate
linear in the second.  Two storage kinds are supported:

* ``vector_state`` with an n x n weight matrix S:
      phi(a, b) = tr(b^H a S)
* ``gram`` with a d x d matrix G over the algebra basis:
      phi(a, b) = b_coeffs^H G a_coeffs,   G[i, j] = phi(a_j, a_i)

Validation checks positivity of the stored matrix, the module-invariance
identity phi(a.x, y) = phi(x, a^H.y), and density: the subalgebra must
reach every direction of the quotient space, measured by comparing Gram
ranks.  Twisting by a subalgebra element x sends phi to
phi^x(a, b) = phi(a.x, b.x), whose Gram matrix is R_x^H G R_x with R_x the
matrix of right multiplication by x; a twist is therefore Gram-kind,
whatever the kind of phi.  A family is balanced when it is closed under
basis twists, and its closure members other than the seeds are Gram-kind.

The closure holds each member's Gram and a factor of it, G = F^H diag(signs)
F + E with F of r <= dim H_phi rows, where d grows like dim H_phi squared.
A seed's factor comes from its quotient section's eigenpairs with
|w| > d eps |G|_2, so the part E left out is below G's rounding; a twist's
factor is F R_x, at r d^2 where R_x^H G R_x costs d^3.  The closure and its
twist-stability check decide on each twist as formed from its factor,
P^H diag(signs) P with P = F R_x: it is left out unformed when
|P|_F^2 + |E|_2 |R_x|_F^2, which bounds its Frobenius norm, is below the
floor (Golub & Van Loan, 2.3), and is otherwise sorted into zero, known and
new directions from |D|_F / sqrt(d) <= |D|_2 <= |D|_F, certifying a
direction by 2e <= tol.form (a - e) (see ``_classify``).  These guarantees
are relative to the factor, which agrees with R_x^H G R_x up to rounding.
A new member's Gram is R_x^H G R_x of its member's Gram, as ``twist`` forms
it; a spectral norm is taken for it and only where the Frobenius tests are
inconclusive.  Twisted members are labelled with the basis index they were
twisted by.

Intake keeps ``algebra``'s working-set rule: the closure forms its kept
twists' Grams, and the invariance residuals and degeneracy rows their
products, in ``blocks`` of whole subalgebra basis elements or members,
and a derived member's products F R_x are formed once, for its invariance
residual and its twists, one member at a time.

Forms and families are immutable.  A family keeps one ``FamilyContext``
for the instance and tolerances it was last queried with, and rebuilds it
when either changes; nothing needs clearing by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (Element, QuasiAlgebraInstance, _is_int, blocks, parse_complex_matrix,
                      spectral_norm)
from .errors import ClosureViolation, EmptyFamily, NotInA0, NotIps, ParseError
from .probes import random_probes
from .report import CheckResult, all_passed, pairs
from .tolerances import DEFAULT_TOL, ToleranceConfig

VECTOR_STATE = "vector_state"
GRAM = "gram"


class IpsForm:
    """One stored sesquilinear form.  Immutable after construction."""

    def __init__(self, kind: str, payload, label: str = ""):
        if kind not in (VECTOR_STATE, GRAM):
            raise ParseError("<form>", f"unknown form kind {kind!r}", field="kind")
        self.kind = kind
        mat = np.array(payload, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ParseError("<form>", f"form payload must be square, got {mat.shape}")
        mat.setflags(write=False)
        self.payload = mat
        self.label = label or kind

    # -- evaluation ---------------------------------------------------------

    def eval(self, a: Element, b: Element) -> complex:
        """phi(a, b): linear in a, conjugate linear in b."""
        P = self._payload_for(a.alg)
        if self.kind == VECTOR_STATE:
            return complex(np.trace(b.matrix.conj().T @ a.matrix @ P))
        return complex(b.coeffs.conj() @ P @ a.coeffs)

    def _payload_for(self, alg):
        size = alg.dim if self.kind == GRAM else alg.n
        if self.payload.shape[0] != size:
            raise ParseError("<form>", f"{self.kind} payload is {self.payload.shape[0]}x"
                                       f"{self.payload.shape[0]}, the instance needs {size}x{size}")
        return self.payload

    def gram(self, alg: QuasiAlgebraInstance):
        """The d x d matrix G with phi(a, b) = b^H G a over the basis."""
        G = S = self._payload_for(alg)
        if self.kind == VECTOR_STATE:
            w, V = np.linalg.eigh((S + S.conj().T) / 2.0)
            root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
            P = (np.stack(alg.basis) @ root).reshape(alg.dim, -1).T
            G = P.conj().T @ P
        G = (G + G.conj().T) / 2.0
        G.setflags(write=False)
        return G

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, payload, source="<form>"):
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ParseError(source, "form payload must be an object with a 'kind'")
        kind = payload["kind"]
        if kind == VECTOR_STATE:
            if "S" not in payload:
                raise ParseError(source, "vector_state form requires 'S'", field="S")
            mat = parse_complex_matrix(payload["S"], source, "S")
        elif kind == GRAM:
            if "G" not in payload:
                raise ParseError(source, "gram form requires 'G'", field="G")
            mat = parse_complex_matrix(payload["G"], source, "G")
        else:
            raise ParseError(source, f"unknown form kind {kind!r}", field="kind")
        return cls(kind, mat, label=str(payload.get("label", "")))

    def as_jsonable(self):
        key = "S" if self.kind == VECTOR_STATE else "G"
        return {"kind": self.kind, key: pairs(self.payload), "label": self.label}

    def __repr__(self):
        return f"IpsForm({self.kind}, dim={self.payload.shape[0]}, label={self.label!r})"


def form_equal(phi: IpsForm, psi: IpsForm, alg: QuasiAlgebraInstance,
               tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Extensional equality: the two Gram matrices agree within tolerance."""
    Gp, Gq = phi.gram(alg), psi.gram(alg)
    scale = max(spectral_norm(Gp), spectral_norm(Gq), 1e-300)
    return spectral_norm(Gp - Gq) <= tol.form * scale


def form_proportional(phi: IpsForm, psi: IpsForm, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality up to a positive factor.  Twist words can reproduce a form
    at a different overall scale; every consumer either normalizes per
    form or is scale covariant, so closures treat multiples as duplicates."""
    Gp, Gq = phi.gram(alg), psi.gram(alg)
    nq = spectral_norm(Gq)
    return _classify(Gp, (Gq / nq)[None], 0.0, tol) == "known" if nq else not Gp.any()


def _unit_norms(units):
    """|K|_F^2 of each unit K of a stack, as ``_classify`` reads them: a stack
    gives each unit the bits it would give it alone."""
    K = units.reshape(len(units), math.prod(units.shape[1:])).view(float)
    return np.einsum("ij,ij->i", K, K)


def _classify(G, units, floor: float, tol: ToleranceConfig, kk=None):
    """"zero" if |G|_2 <= floor, "known" if |G/|G|_2 - K|_2 <= tol.form for a
    K of the stack ``units`` (each with |K|_2 = 1), else "new".  ``kk`` is
    ``_unit_norms(units)``, for a caller that keeps them with its stack.

    Decided on G scaled to unit largest part.  Zero: |G|_F <= floor certifies
    it and |G|_F / sqrt(d) > floor rules it out.  Direction: with a = <G, K>_F
    / |K|_F^2 and e = |G - aK|_F, ||G|_2 - a| <= |G - aK|_2 <= e, so
    |G/|G|_2 - K|_2 <= 2e / (a - e) and 2e <= tol.form (a - e) certifies K;
    as |G|_2 <= |G|_F, e > sqrt(d) tol.form |G|_F rules K out.  A spectral
    norm is taken only between those tests; a new direction's is the caller's."""
    parts, rd = np.ravel(G).view(float), math.sqrt(len(G))
    s = float(np.abs(parts).max(initial=0.0)) or 1.0
    g = parts / s
    f = math.sqrt(g @ g)
    if s * f <= floor or (s * f <= rd * floor and spectral_norm(G) <= floor):
        return "zero"
    if not len(units):
        return "new"
    K = units.reshape(len(units), G.size).view(float)
    kk = _unit_norms(units) if kk is None else kk
    a = (K @ g) / kk
    # the unit at the smallest angle first: its e is the full test's, bit for bit
    k = int(np.argmax(a * a * kk))
    D = g - a[k] * K[k]
    e = math.sqrt(np.einsum("i,i", D, D))
    if 2.0 * e <= tol.form * (a[k] - e):
        return "known"
    D = a[:, None] * K
    np.subtract(g, D, out=D)
    e = np.sqrt(np.einsum("ij,ij->i", D, D))
    if np.any(2.0 * e <= tol.form * (a - e)):
        return "known"
    near = units[e <= rd * tol.form * f]
    if not len(near):
        return "new"
    gn = spectral_norm(G)
    return "known" if any(spectral_norm(G / gn - U) <= tol.form for U in near) else "new"


def _right_mults(alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """The instance's stacked A0 right-multiplication matrices, provided
    every one of them stays inside the span at this tolerance."""
    R0, rel = alg.right_mult_table
    bad = np.flatnonzero(rel > tol.structure * 100)
    if bad.size:
        j = int(bad[0])
        raise ClosureViolation("right module action", rel[j], indices=alg.a0_indices[j])
    return R0


def _twisted_grams(G, R):
    """The Gram R^H G R of the twist by a right-multiplication matrix R, or
    of each twist for a stack R."""
    return _hermitian_part(R.conj().swapaxes(-1, -2) @ G @ R)


def _squared_frobenius(M):
    """|M_k|_F^2 for each matrix M_k of a stack, from its real and imaginary
    parts.  A factor's squared entries are at its Gram's own scale, so they
    underflow or overflow only where the Gram does."""
    P = M.reshape(len(M), math.prod(M.shape[1:])).view(float)
    return np.einsum("ij,ij->i", P, P)


class GramFactor:
    """A Hermitian Gram as F^H diag(signs) F, F of shape (r, d), up to a part
    of spectral norm at most ``dropped``."""

    __slots__ = ("F", "signs", "dropped")

    def __init__(self, F, signs, dropped: float):
        self.F, self.signs, self.dropped = F, signs, dropped


def _factor_twister(R):
    """``twists(factor, floor, P=None)`` for a stack R of right-multiplication
    matrices: for each j whose twist is not certified below ``floor`` in
    Frobenius norm, in order, (j, the twist's factor P[j], its Gram as formed
    from the factor), with P = F R the factor's products, formed here unless
    the caller holds them.  A twist's factor carries the part F leaves out
    twisted along; its Gram is the Hermitian part of P[j]^H diag(signs) P[j],
    formed for a block of kept twists at a time.

    With G = F^H diag(signs) F + E, R^H G R = P^H diag(signs) P + R^H E R has
    Frobenius norm at most |P|_F^2 + |E|_2 |R|_F^2 (Golub & Van Loan, 2.3);
    the factor 1 + 4 d^2 eps covers the rounding of P and of every norm, so a
    twist left out is one that ``_classify`` would call zero as formed from
    the factor.  The guarantee is relative to the factor: the rounding of the
    eigendecomposition that gave F, and of R^H G R formed from G itself, are
    of order d eps |G|_2 |R|_F^2 and not covered.  It needs no positivity of G."""
    d = R.shape[-1]
    slack = 1.0 + 4.0 * d * d * np.finfo(float).eps
    rsq = _squared_frobenius(R)

    def twists(factor, floor, P=None):
        P = factor.F @ R if P is None else P
        keep = np.flatnonzero(~(_squared_frobenius(P) + factor.dropped * rsq <= floor / slack))
        for blk in blocks(len(keep), 32 * d * d):
            js = keep[blk]
            Pk = P[js]
            grams = _hermitian_part(Pk.conj().transpose(0, 2, 1) @ (factor.signs[:, None] * Pk))
            for j, p, s, Gt in zip(js.tolist(), Pk, rsq[js].tolist(), grams):
                yield j, GramFactor(p, factor.signs, factor.dropped * s), Gt
    return twists


def _right_mult_of(x: Element, tol: ToleranceConfig = DEFAULT_TOL):
    """R_x, the coefficient matrix of a |-> a.x, contracted from the
    right-multiplication table; raises NotInA0 when x is outside the subalgebra."""
    member, c0, res = x.in_a0(tol)
    if not member:
        raise NotInA0(f"right factor outside the subalgebra: residual {res:.3e}")
    return np.tensordot(c0, _right_mults(x.alg, tol), axes=1)


def twist(phi: IpsForm, x: Element, tol: ToleranceConfig = DEFAULT_TOL) -> IpsForm:
    """The twisted form phi^x(a, b) = phi(a.x, b.x) for x in the subalgebra,
    as a Gram-kind form."""
    R = _right_mult_of(x, tol)
    return IpsForm(GRAM, _twisted_grams(phi.gram(x.alg), R), label=f"{phi.label}^tw")


@dataclass
class FormReport:
    """Validation record for a single form."""

    label: str
    kind: str
    checks: list = field(default_factory=list)
    rank_full: int = 0
    rank_sub: int = 0

    @property
    def accepted(self) -> bool:
        return all_passed(self.checks)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "accepted": self.accepted,
            "rank_full": self.rank_full,
            "rank_sub": self.rank_sub,
            "checks": [c.as_dict() for c in self.checks],
        }


def _psd_margins(mats):
    """Per matrix of a stack: (hermiticity residual, min eig, max |eig|).  The
    residual is relative to the spectral norm, taken only off exact symmetry."""
    H = _hermitian_part(mats)
    # H is Hermitian to the bit, so it differs from every matrix that is not
    herm = np.zeros(len(mats))
    for k in np.flatnonzero((H != mats).any(axis=(1, 2))):
        D = mats[k] - mats[k].conj().T
        herm[k] = spectral_norm(D) / max(spectral_norm(mats[k]), 1e-300) if D.any() else 0.0
    w = np.linalg.eigvalsh(H)
    return herm, w.min(axis=1, initial=np.inf), np.abs(w).max(axis=1, initial=0.0)


@dataclass(frozen=True)
class QuotientSection:
    """The kept eigenpairs (w, V) of a positive matrix M, the section
    V diag(w)^(-1/2), the dropped directions with their eigenvalues, and the
    top |eigenvalue|."""

    w: np.ndarray
    V: np.ndarray
    section: np.ndarray
    null_dirs: np.ndarray
    null_w: np.ndarray
    wmax: float

    @cached_property
    def factor(self):
        """M as a ``GramFactor``: a row sqrt|w| v^H with sign(w) for each
        eigenpair with |w| > d eps |M|_2, leaving out a part below M's rounding.
        The section's kept eigenpairs all enter: the rank cut lies far above that."""
        w, V, rest = self.w, self.V, np.abs(self.null_w)
        big = rest > len(V) * np.finfo(float).eps * self.wmax
        if big.any():
            w, V, rest = np.concatenate([self.null_w[big], w]), \
                np.hstack([self.null_dirs[:, big], V]), rest[~big]
        return GramFactor(np.sqrt(np.abs(w))[:, None] * V.conj().T, np.sign(w),
                          float(rest.max(initial=0.0)))

    def leak(self, T):
        """Largest |eigenvalue| of the Hermitian T (of each, for a stack) on the dropped directions."""
        L = self.null_dirs.conj().T @ T @ self.null_dirs
        return np.abs(np.linalg.eigvalsh(_hermitian_part(L))).max(axis=-1, initial=0.0)

    def gain(self, T):
        """Largest sqrt(z^H T z / z^H M z) over the essential range of M, per matrix of T."""
        B = self.section.conj().T @ T @ self.section
        return np.sqrt(np.linalg.eigvalsh(_hermitian_part(B)).max(axis=-1, initial=0.0))


def _hermitian_part(T):
    """(T + T^H) / 2 of a matrix or of each matrix of a stack, in one buffer
    without a strided read or a complex division."""
    H = T.swapaxes(-1, -2).copy(order="C")
    np.conjugate(H, out=H)
    H += T
    H *= 0.5
    return H


def quotient_section(M, rank_tol: float, scale=None) -> QuotientSection:
    """Split a positive matrix into its essential range and null directions,
    cutting at ``rank_tol`` times ``scale`` (default: M's top |eigenvalue|)."""
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    wmax = float(np.abs(w).max(initial=0.0))
    keep = w > rank_tol * max(wmax if scale is None else scale, 1e-300)
    return QuotientSection(w[keep], V[:, keep], V[:, keep] @ np.diag(1.0 / np.sqrt(w[keep])),
                           V[:, ~keep], w[~keep], wmax)


def gram_sections(G, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """``(full, sub)``: the quotient sections of a Gram matrix and of its
    subalgebra block.  Their ``w.size`` are the numerical ranks, and the
    subalgebra is dense in the quotient exactly when the two are equal.
    Both are cut at the scale of the whole Gram, so a block of rounding
    noise has rank 0, and the block's rank never exceeds the Gram's."""
    ix = np.asarray(alg.a0_indices)
    full = quotient_section(G, tol.rank)
    return full, quotient_section(G[np.ix_(ix, ix)], tol.rank, full.wmax)


def invariance_residual(phi: IpsForm, alg: QuasiAlgebraInstance,
                        tol: ToleranceConfig = DEFAULT_TOL):
    """Max residual of phi(a.x, y) - phi(x, a^H.y) over all basis triples.

    Returns ``(residual, scale)``; the identity is required of every stored
    form and is what lets representation matrices act on the quotient.
    """
    G = phi.gram(alg)
    # a Hermitian matrix's spectral norm is its largest |eigenvalue|
    top = np.abs(np.linalg.eigvalsh(G)).max(initial=0.0)
    worst, scale = _invariance_residuals(G[None], [top], alg, tol)
    return float(worst[0]), float(scale[0])


def _invariance_residuals(grams, tops, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """``invariance_residual`` of each Hermitian Gram of a list, as arrays,
    given each one's spectral norm in ``tops``."""
    worst, R0 = _invariance_worst(alg, tol), _right_mults(alg, tol)
    ix = np.asarray(alg.a0_indices)
    return np.array([worst(G[ix, :], G[:, ix], R0) for G in grams]), _invariance_scale(alg, tops)


def _invariance_scale(alg: QuasiAlgebraInstance, tops):
    """The scale of ``invariance_residual`` for forms of spectral norms ``tops``."""
    bnorm = max(float(np.linalg.norm(b)) for b in alg.basis)
    return (1.0 + np.asarray(tops, dtype=float)) * (1.0 + bnorm) ** 2


def _invariance_worst(alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """``worst(L, Lh, P)``: the largest |phi(a_i x_j, x_k) - phi(x_j, a_i^H x_k)|
    over all basis triples, for the Hermitian form phi with Gram rows
    G[ix, :] = L F, Lh = L^H, and P = F R0 stacked over x_j.  A Gram is
    L = G[ix, :] with P = R0; a ``GramFactor`` is Lh = diag(signs) F[:, ix]
    with P its products, which its twists read too."""
    R0 = _right_mults(alg, tol)
    Sh = alg.star_matrix()[0].conj().T
    n0, d = R0.shape[:2]

    def worst(L, Lh, P):
        # per block of x_k, one GEMM per side and one buffer: D[k, i, j] holds
        # phi(x_j, a_i^H x_k) = (S^H P[k]^H L^H)[i, j] less phi(a_i x_j, x_k) = (L P[j])[k, i]
        out = 0.0
        for kb in blocks(n0, 16 * d * (n0 + P.shape[1])):
            D = (Sh @ P[kb].conj().transpose(0, 2, 1)) @ Lh
            D -= (L[kb] @ P).transpose(1, 2, 0)
            out = np.maximum(out, np.abs(D).max(initial=0.0))
        return float(out)
    return worst


def validate_ips_form(phi: IpsForm, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      require_density: bool = True) -> FormReport:
    """Full validation of one form against one instance.

    Checks, in order: Hermitian payload, positive semidefiniteness within
    the eigenvalue floor, module invariance, and (unless disabled) density
    of the subalgebra image in the quotient, decided by Gram ranks.
    """
    G = phi.gram(alg)
    sections = gram_sections(G, alg, tol)
    inv_res, inv_scale = _invariance_residuals(G[None], [sections[0].wmax], alg, tol)
    return _form_report(phi, sections, inv_res[0], inv_scale[0], tol, require_density)


def _form_report(phi: IpsForm, sections, inv_res, inv_scale, tol: ToleranceConfig,
                 require_density: bool) -> FormReport:
    """``validate_ips_form``'s report from phi's ``gram_sections`` and its
    invariance residual and scale."""
    report = FormReport(label=phi.label, kind=phi.kind)

    herm_res, wmin, wmax = (float(v[0]) for v in _psd_margins(phi.payload[None]))
    report.checks.append(CheckResult(
        "payload-hermitian", herm_res <= tol.psd, {"residual": herm_res}))
    margin = wmin / wmax if wmax > 0 else 0.0
    report.checks.append(CheckResult(
        "payload-positive", wmin >= -tol.psd * max(wmax, 1e-300),
        {"min_eig": wmin, "max_eig": wmax, "relative_margin": margin}))

    inv_res, inv_scale = float(inv_res), float(inv_scale)
    report.checks.append(CheckResult(
        "module-invariance", inv_res <= tol.form * inv_scale,
        {"residual": inv_res, "scale": inv_scale}))

    report.rank_full, report.rank_sub = (sec.w.size for sec in sections)
    dense = report.rank_sub == report.rank_full
    if require_density:
        report.checks.append(CheckResult(
            "subalgebra-density", dense,
            {"rank_full": report.rank_full, "rank_sub": report.rank_sub}))
    else:
        report.checks.append(CheckResult(
            "subalgebra-density-informational", True,
            {"rank_full": report.rank_full, "rank_sub": report.rank_sub, "dense": dense},
            note="density recorded but not required in this context"))
    return report


def is_dense(phi: IpsForm, alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the subalgebra reaches the whole quotient space of phi."""
    full, sub = gram_sections(phi.gram(alg), alg, tol)
    return full.w.size == sub.w.size


def _checked_depth(depth, source):
    """``depth`` if it is a non-negative integer, else a ParseError naming ``source``."""
    if not _is_int(depth) or depth < 0:
        raise ParseError(source, f"twist_depth must be a non-negative integer, got {depth!r}",
                         field="twist_depth")
    return depth


class FormFamily:
    """A finite family of forms with a twist-closure policy.

    ``generators`` are the seed forms; when ``balanced`` is set the
    effective family is the closure of the seeds under twisting by
    subalgebra basis elements up to ``twist_depth`` (duplicates and the
    zero form are dropped).  When not balanced the family is the seeds
    exactly.  A family is immutable: to change its depth, build a new one.
    """

    __slots__ = ("seeds", "balanced", "twist_depth", "label", "_ctx")

    def __init__(self, generators, balanced: bool = False, twist_depth: int = 1, label: str = ""):
        self.seeds = tuple(generators)
        self.balanced = bool(balanced)
        self.twist_depth = int(twist_depth)
        self.label = label or "family"
        self._ctx = None

    def __setattr__(self, name, value):
        if name != "_ctx" and hasattr(self, name):
            raise AttributeError(f"FormFamily is immutable; build a new family to change {name!r}")
        object.__setattr__(self, name, value)

    def context(self, alg: QuasiAlgebraInstance,
                tol: ToleranceConfig = DEFAULT_TOL) -> "FamilyContext":
        """The family's derived data on ``alg`` at ``tol``, built on first use."""
        ctx = self._ctx
        if ctx is None or ctx.alg is not alg or ctx.tol != tol:
            ctx = self._ctx = FamilyContext(self, alg, tol)
        return ctx

    def forms(self, alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL):
        """The effective form list under the closure policy."""
        return self.context(alg, tol).closure[0]

    def dense_forms(self, alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL):
        """Seeds whose quotient admits a representation (density holds)."""
        return self.context(alg, tol).dense_forms()

    def sufficiency(self, alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL):
        """The family's ``check_sufficiency`` report on ``alg``."""
        return check_sufficiency(self, alg, tol)

    @classmethod
    def from_json(cls, payload, source="<family>"):
        if not isinstance(payload, dict) or "generators" not in payload:
            raise ParseError(source, "family payload must be an object with 'generators'")
        gens_raw = payload["generators"]
        if not isinstance(gens_raw, list) or not gens_raw:
            raise ParseError(source, "generators must be a non-empty list", field="generators")
        gens = []
        for i, g in enumerate(gens_raw):
            phi = IpsForm.from_json(g, source)
            if phi.label == phi.kind:
                phi = IpsForm(phi.kind, phi.payload, label=f"phi{i}")
            gens.append(phi)
        balanced = payload.get("balanced", False)
        if not isinstance(balanced, bool):
            raise ParseError(source, f"balanced must be true or false, got {balanced!r}",
                             field="balanced")
        return cls(gens, balanced=balanced,
                   twist_depth=_checked_depth(payload.get("twist_depth", 1), source),
                   label=str(payload.get("label", "family")))

    def as_jsonable(self):
        return {
            "generators": [g.as_jsonable() for g in self.seeds],
            "balanced": self.balanced,
            "twist_depth": self.twist_depth,
            "label": self.label,
        }

    def __repr__(self):
        return (f"FormFamily({len(self.seeds)} seed(s), balanced={self.balanced}, "
                f"label={self.label!r})")


class FamilyContext:
    """What one family induces on one instance at one set of tolerances,
    each entry computed on first use.  It holds the seeds but not the
    family that owns it, so no reference cycle forms."""

    def __init__(self, family: FormFamily, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
        self.alg = alg
        self.tol = tol
        self.seeds = family.seeds
        self.balanced = family.balanced
        self.depth = family.twist_depth

    @cached_property
    def seed_grams(self):
        return tuple(phi.gram(self.alg) for phi in self.seeds)

    @cached_property
    def closure(self):
        """(members, Gram matrices, spectral norms) of the effective family."""
        return self._grown[:3]

    @cached_property
    def factors(self):
        """Per closure member of a balanced family, the ``GramFactor`` that its
        twists start from; an unbalanced family twists nothing and has none."""
        return self._grown[3]

    @cached_property
    def untwisted(self):
        """(member, factor) for the members of a balanced closure that building
        it never twisted: the last round's additions, or every member at depth
        0.  Every other member's twists were pushed and found in the closure
        or zero."""
        members, start = self.closure[0], self._grown[4]
        return tuple(zip(members[start:], self.factors[start:]))

    @cached_property
    def scale(self):
        """The largest seed |G|_2: the closure calls a twist zero below 1e-14
        times it and the stability check below 1e-12 times it, so scaling
        every form by c > 0 moves no decision, and an all-zero family closes
        to nothing."""
        return max((full.wmax for full, _ in self.sections), default=0.0)

    @cached_property
    def _grown(self):
        """``closure``, ``factors``, where the untwisted members start, and for
        a balanced family its ``directions``, which the closure is built on."""
        if not self.balanced:
            return self.seeds, self.seed_grams, tuple(full.wmax for full, _ in self.sections), (), 0, None
        seeded = tuple(zip(self.seeds, self.seed_grams, (full.factor for full, _ in self.sections)))
        R = _right_mults(self.alg, self.tol)
        twists, ix = _factor_twister(R), self.alg.a0_indices
        norms, units, kk = [], np.empty((0, self.alg.dim, self.alg.dim), dtype=complex), np.empty(0)
        floor = 1e-14 * self.scale

        def fresh(Gt):
            """Whether Gt is nonzero and not yet a direction."""
            return _classify(Gt, units, floor, self.tol, kk) == "new"

        def record(G):
            """Take the member Gram G as a direction, with its spectral norm."""
            nonlocal units, kk
            gn = spectral_norm(G)
            norms.append(gn)
            units = np.concatenate([units, (G / gn)[None]])
            kk = np.append(kk, _unit_norms(units[-1:]))

        kept = []
        for member in seeded:
            if fresh(member[1]):
                record(member[1])
                kept.append(member)
        frontier = seeded
        for _ in range(self.depth):
            if not frontier:
                # a round that added nothing leaves nothing to twist
                break
            # decided on the twist formed from the factor; a new member's Gram
            # is R^H G R of its member's Gram, as ``twist`` forms it
            new = []
            for phi, G, fac in frontier:
                for j, twisted, Gt in twists(fac, floor):
                    if fresh(Gt):
                        tw = IpsForm(GRAM, _twisted_grams(G, R[j]), label=f"{phi.label}^tw{ix[j]}")
                        record(tw.payload)
                        new.append((tw, twisted))
            frontier = tuple((tw, tw.payload, fac) for tw, fac in new)
            kept += frontier
        members, grams, factors = (tuple(col) for col in zip(*kept)) if kept else ((), (), ())
        return members, grams, tuple(norms), factors, \
            len(kept) - len(frontier) if self.depth > 0 else 0, (units, kk)

    @cached_property
    def nonzero(self):
        """Labels and stacked normalized Gram matrices of the nonzero members."""
        members, grams, norms = self.closure
        keep = [i for i, gn in enumerate(norms) if gn > 0]
        return [members[i].label for i in keep], self.directions[0]

    @cached_property
    def directions(self):
        """``(units, kk)``: the nonzero members' Grams normalized to unit
        spectral norm, stacked, and ``_unit_norms`` of them."""
        if self._grown[5] is not None:
            # a balanced closure keeps exactly its nonzero members, each as G / |G|_2
            return self._grown[5]
        _, grams, norms = self.closure
        d = self.alg.dim
        units = np.reshape([G / gn for G, gn in zip(grams, norms) if gn > 0], (-1, d, d))
        return units, _unit_norms(units)

    @cached_property
    def gram_sum(self):
        """Eigenpairs of the summed normalized Grams, and its null mask."""
        w, V = np.linalg.eigh(_hermitian_part(self.nonzero[1].sum(axis=0)))
        wmax = float(np.abs(w).max(initial=0.0))
        return w, V, w <= self.tol.rank * max(wmax, 1e-300)

    @cached_property
    def separation(self):
        """``(dim_null, margin, witness)`` of the Gram sum: its null dimension,
        its smallest eigenvalue relative to its largest, and, for a family that
        does not separate points, ``(coeffs, {label: value})``: a null direction
        scaled to unit Frobenius norm and its value under every member; else None."""
        if not self.seeds:
            raise EmptyFamily("family has no generators")
        w, V, null_mask = self.gram_sum
        dim_null = int(np.sum(null_mask))
        wmax = float(np.abs(w).max(initial=0.0))
        margin = (float(w.min()) if w.size else 0.0) / max(wmax, 1e-300)
        if not dim_null:
            return dim_null, margin, None
        witness = self.alg.element(V[:, 0])
        nf = witness.norm_frobenius()
        if nf > 0:
            witness = witness * (1.0 / nf)
        return dim_null, margin, (witness.coeffs, {phi.label: float(phi.eval(witness, witness).real)
                                                   for phi in self.closure[0]})

    @cached_property
    def sections(self):
        """Per seed, the ``(full, sub)`` quotient sections of ``gram_sections``."""
        return tuple(gram_sections(G, self.alg, self.tol) for G in self.seed_grams)

    @cached_property
    def member_sections(self):
        """Per closure member, the quotient section of its whole Gram matrix."""
        return tuple(quotient_section(G, self.tol.rank) for G in self.closure[1])

    @cached_property
    def dense_seeds(self):
        return tuple(phi for phi, (full, sub) in zip(self.seeds, self.sections)
                     if full.w.size == sub.w.size)

    def dense_forms(self):
        if not self.dense_seeds:
            raise NotIps("no family generator satisfies the density requirement")
        return self.dense_seeds

    @cached_property
    def reps(self):
        """Representations of the dense seeds, in seed order."""
        from . import gns
        dense = self.dense_forms()
        return tuple(gns.represent(phi, G, secs, self.alg, self.tol)
                     for phi, G, secs in zip(self.seeds, self.seed_grams, self.sections)
                     if phi in dense)

    @cached_property
    def rep_blocks(self):
        """Per representation, the columns vec(pi(a_i)) over the basis."""
        return tuple(rep.rep_mats.reshape(self.alg.dim, -1).T for rep in self.reps)

    @cached_property
    def weak_system(self):
        """``(M, Uh, s, Vh)``: row (member, j, k) of M holds phi(a_i.x_j, x_k)
        / |phi| over i for the nonzero members, with M's thin SVD U s Vh
        and U kept as its adjoint Uh, the factor every solve applies."""
        units = self.nonzero[1]
        R0 = _right_mults(self.alg, self.tol)
        ix = np.asarray(self.alg.a0_indices)
        M = (units[:, None, ix, :] @ R0[None]).reshape(-1, self.alg.dim)
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
        return M, np.ascontiguousarray(U.conj().T), s, Vh


@dataclass
class FamilyReport:
    """Validation record for a family: per-seed reports plus closure health."""

    label: str
    balanced: bool
    twist_depth: int
    seed_reports: list = field(default_factory=list)
    closure_size: int = 0
    checks: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return all(r.accepted for r in self.seed_reports) and all_passed(self.checks)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "balanced": self.balanced,
            "twist_depth": self.twist_depth,
            "accepted": self.accepted,
            "closure_size": self.closure_size,
            "seeds": [r.as_dict() for r in self.seed_reports],
            "checks": [c.as_dict() for c in self.checks],
        }


def validate_family(family: FormFamily, alg: QuasiAlgebraInstance,
                    tol: ToleranceConfig = DEFAULT_TOL) -> FamilyReport:
    """Validate the seeds and the derived closure members.

    Every member must be invariant and positive.  Density is recorded per
    seed but not required: it gates representation building, not family
    membership, and designed counterexamples ship without it.  For a
    balanced family the closure must be stable under one more round of
    basis twists, up to positive scaling.
    """
    if not family.seeds:
        raise EmptyFamily("family has no generators")
    ctx = family.context(alg, tol)
    members, grams, _ = ctx.closure
    seed_ids = {id(s) for s in family.seeds}
    derived = [i for i, phi in enumerate(members) if id(phi) not in seed_ids]
    herm_res, wmin, wmax = _psd_margins(
        np.array([grams[i] for i in derived], dtype=complex).reshape(-1, alg.dim, alg.dim))
    worst_pos = float(np.max([herm_res, -wmin / np.maximum(wmax, 1e-300)], initial=0.0))

    # one member at a time, the products P = F R0 of each derived or untwisted
    # member's factor, read by its invariance residual and by its twists
    R0, ix = _right_mults(alg, tol), np.asarray(alg.a0_indices)
    worst, twists = _invariance_worst(alg, tol), _factor_twister(R0)
    n = len(family.seeds)
    inv_scale = _invariance_scale(alg, [*(full.wmax for full, _ in ctx.sections), *wmax])
    inv_res = [worst(G[ix, :], G[:, ix], R0) for G in ctx.seed_grams]
    report = FamilyReport(label=family.label, balanced=family.balanced,
                          twist_depth=family.twist_depth, closure_size=len(members),
                          seed_reports=[_form_report(*args, tol, require_density=False)
                                        for args in zip(family.seeds, ctx.sections,
                                                        inv_res, inv_scale[:n])])
    report.checks.append(CheckResult(
        "closure-positivity", worst_pos <= tol.psd, {"worst_relative_defect": worst_pos}))

    worst_inv, new = 0.0, []
    if family.balanced:
        scales = dict(zip(derived, inv_scale[n:]))
        untwisted = {id(phi) for phi, _ in ctx.untwisted}
        floor, (units, kk) = 1e-12 * ctx.scale, ctx.directions
        for i, (phi, fac) in enumerate(zip(members, ctx.factors)):
            if i not in scales and id(phi) not in untwisted:
                continue
            P = fac.F @ R0
            if i in scales:
                Lh = fac.signs[:, None] * fac.F[:, ix]
                worst_inv = float(np.maximum(worst_inv, worst(Lh.conj().T, Lh, P) / scales[i]))
            if id(phi) in untwisted:
                # the twists that are neither zero nor a direction of the closure
                new += [f"{phi.label} twisted by basis index {alg.a0_indices[j]}"
                        for j, _, Gt in twists(fac, floor, P)
                        if _classify(Gt, units, floor, tol, kk) == "new"]
    report.checks.append(CheckResult(
        "closure-invariance", worst_inv <= tol.form, {"worst_relative_residual": worst_inv}))
    if family.balanced:
        report.checks.append(CheckResult(
            "twist-stability", not new, {"closure_size": len(members)},
            note=new[-1] if new else "closure reproduces itself under basis twists"))
    return report


@dataclass
class SufficiencyReport:
    """Outcome of the separation test for one family on one instance."""

    label: str
    sufficient: bool
    dim_null: int
    margin: float
    depth: int
    quantifier: str
    witness_coeffs: object = None
    witness_values: dict = field(default_factory=dict)
    max_witness_value: float = 0.0
    checks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "label": self.label,
            "sufficient": self.sufficient,
            "dim_null": self.dim_null,
            "margin": self.margin,
            "twist_depth": self.depth,
            "quantifier": self.quantifier,
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.witness_coeffs is not None:
            out["witness_coeffs"] = pairs(self.witness_coeffs)
            out["witness_values"] = {k: float(v) for k, v in self.witness_values.items()}
            out["max_witness_value"] = self.max_witness_value
        return out


def degeneracy_residuals(a: Element, family: FormFamily, alg: QuasiAlgebraInstance,
                         tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """The four equivalent vanishing conditions for one element.

    Returns residuals r1..r4 for: (1) phi(a.x, x) = 0 with x ranging over
    the whole subalgebra, measured through the Hermitian and skew parts of
    the pairing matrix Q; (2) phi(a.x, y) = 0 entrywise on basis pairs;
    (3) phi(a.x, a.x) = 0 on the basis, which controls the span because the
    matrix is positive; (4) phi(a, a) = 0 over the effective family.  The
    first three agree for any family; the fourth joins only under the
    balanced closure policy with a unit.
    """
    row = _degeneracy_rows(a.coeffs[None], family, alg, tol)[0]
    return dict(zip(("r1", "r2", "r3", "r4", "scale"), map(float, row)))


def _degeneracy_rows(C, family: FormFamily, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """``degeneracy_residuals`` of each coefficient row of C, as the rows
    [r1, r2, r3, r4, scale] of one array.  r1 is the spectral norm of the
    Hermitian (Q + Q^H)/2 and of (Q - Q^H)/2i, read as their largest
    |eigenvalue|, solved only for the parts that could hold it."""
    _, grams, norms = family.context(alg, tol).closure
    R0 = _right_mults(alg, tol)
    ix = np.asarray(alg.a0_indices)
    m, n0 = len(grams), len(ix)
    # AX[p, i, j] holds the coefficient i of a_p.x_j, GAX[g, p] = G_g AX[p]
    AX = (R0 @ C.T).transpose(2, 1, 0)

    def stack(members):
        return np.array([grams[k] for k in members], dtype=complex).reshape(-1, alg.dim, alg.dim)

    def parts(G):
        """For a stack G of member Grams: GAX and Q = GAX[..., ix, :], and H[s, g, p]
        the Hermitian (s = 0) and skew (s = 1) parts (Q + Q^H)/2 and (Q - Q^H)/2i."""
        GAX = G[:, None] @ AX
        Q = GAX[:, :, ix, :]
        QH = Q.swapaxes(-1, -2).copy()
        np.conjugate(QH, out=QH)
        H = np.empty((2, *Q.shape), dtype=complex)
        np.add(Q, QH, out=H[0])
        H[0] *= 0.5
        np.subtract(Q, QH, out=H[1])
        H[1] *= -0.5j
        return GAX, Q, H

    # rows[s, g, p, i]: the squared norm of row i of part H[s, g, p]; r2, r3
    # and r4 read each block of members as it passes
    rows, H = np.empty((2, m, len(C), n0)), None
    r2, r3, r4 = np.zeros(len(C)), np.zeros(len(C)), np.zeros(len(C))
    for blk in blocks(m, 64 * len(C) * alg.dim * n0):
        G = stack(range(m)[blk])
        GAX, Q, H = parts(G)
        pv = H.view(float)
        rows[:, blk] = np.einsum("scpij,scpij->scpi", pv, pv)
        r2 = np.maximum(r2, np.abs(Q).max(axis=(0, 2, 3), initial=0.0))
        # Re(conj(GAX) AX) is Re(conj(AX) GAX) to the bit
        np.conjugate(GAX, out=GAX)
        GAX *= AX
        r3 = np.maximum(r3, GAX.sum(axis=2).real.max(axis=(0, 2), initial=0.0))
        r4 = np.maximum(r4, ((G @ C.T) * C.T.conj()).sum(axis=1).real.max(axis=0, initial=0.0))
        # freed before the next block is formed; H stays for the parts to solve
        del G, GAX, Q, pv
    # part c (side, member) for probe p.  |H|_2 lies between H's largest row
    # norm and its Frobenius norm, so a part can hold probe p's largest
    # |eigenvalue| only if its Frobenius norm reaches the largest row norm of
    # p's parts; the factor covers the rounding of both.  Where a probe's
    # squares could underflow or overflow, every part is solved
    rows = rows.reshape(2 * m, len(C), n0)
    low = rows.max(axis=(0, 2), initial=0.0)
    if not (low.min(initial=1.0) > 1e-280 and low.max(initial=1.0) < 1e280):
        low[~((low > 1e-280) & (low < 1e280))] = 0.0
    solve = ~(rows.sum(axis=2) * (1.0 + 4.0 * n0 * n0 * np.finfo(float).eps) < low)
    # the parts to solve: read from the last block, or formed again for the
    # members that hold one when any lies before it
    mask = solve.reshape(2, m, len(C))
    if H is not None and not mask[:, :blk.start].any():
        H = H[mask[:, blk]]
    else:
        held = np.flatnonzero(mask.any(axis=(0, 2)))
        H = parts(stack(held))[2][mask[:, held]]
    tops = np.zeros(solve.shape)
    tops[solve] = np.abs(np.linalg.eigvalsh(H)).max(axis=1, initial=0.0)
    r1 = tops.max(axis=0, initial=0.0)
    scale = (1.0 + max(norms, default=0.0)) * (1.0 + np.linalg.norm(C @ alg._bmat.T, axis=1)) ** 2
    return np.column_stack([r1, r2, r3, r4, scale])


def check_sufficiency(family: FormFamily, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL) -> SufficiencyReport:
    """Decide whether the effective family separates points of the algebra.

    The joint null space is the kernel of the sum of the normalized Gram
    matrices.  A nonzero kernel direction is returned as a unit-Frobenius
    witness together with its value under every effective form, and the
    four-way degeneracy equivalence is exercised on the witness and on a
    small deterministic probe set.
    """
    dim_null, margin, witness = family.context(alg, tol).separation
    quantifier = ("closure of the generators under basis twists"
                  if family.balanced else "stored generators, no twisting")
    report = SufficiencyReport(
        label=family.label, sufficient=dim_null == 0, dim_null=dim_null,
        margin=margin, depth=family.twist_depth if family.balanced else 0,
        quantifier=quantifier,
    )

    probes = [alg.unit, alg.basis_element(0), *random_probes(alg, 2)]
    if witness is not None:
        report.witness_coeffs, values = witness
        report.witness_values = dict(values)
        report.max_witness_value = max(values.values(), default=0.0)
        probes.append(alg.element(report.witness_coeffs))

    # four-way equivalence: the zero verdicts of r1/r2/r3 must agree on
    # every probe; r4 joins them when the family is balanced
    agree = True
    iv_agree = True
    rows = []
    table = _degeneracy_rows(np.array([pr.coeffs for pr in probes]), family, alg, tol)
    for idx, (*res, scale) in enumerate(table.tolist()):
        z1, z2, z3, z4 = (r <= tol.form * scale for r in res)
        agree = agree and (z1 == z2 == z3)
        if family.balanced:
            iv_agree = iv_agree and (z4 == z1)
        rows.append({"probe": idx, **dict(zip(("r1", "r2", "r3", "r4"), res))})
    report.checks.append(CheckResult(
        "degeneracy-equivalence-i-iii", agree, {"probes": rows}))
    if family.balanced:
        report.checks.append(CheckResult(
            "degeneracy-equivalence-iv", iv_agree, {},
            note="vanishing of phi(a, a) over the closure matches the pairing conditions"))
    return report
