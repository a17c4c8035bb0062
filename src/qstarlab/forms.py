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
phi^x(a, b) = phi(a.x, b.x); a family is balanced when it is closed under
basis twists.

Forms and families are immutable.  A family keeps one ``FamilyContext``
for the instance and tolerances it was last queried with, and rebuilds it
when either changes; nothing needs clearing by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Element, QuasiAlgebraInstance, complex_matrix_jsonable, parse_complex_matrix
from .errors import ClosureViolation, EmptyFamily, NotInA0, NotIps, ParseError
from .report import CheckResult, all_passed
from .tolerances import DEFAULT_TOL, ToleranceConfig

VECTOR_STATE = "vector_state"
GRAM = "gram"

# random probes used by the four-way degeneracy check
_PROBE_SEED = 0xA11CE


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
        if self.kind == VECTOR_STATE:
            return complex(np.trace(b.matrix.conj().T @ a.matrix @ self.payload))
        G = self._gram_payload(a.alg)
        return complex(b.coeffs.conj() @ G @ a.coeffs)

    def _gram_payload(self, alg):
        if self.kind == GRAM and self.payload.shape[0] != alg.dim:
            raise ParseError("<form>", f"gram payload is {self.payload.shape[0]}x..., "
                                       f"instance basis has {alg.dim} elements")
        return self.payload

    def gram(self, alg: QuasiAlgebraInstance):
        """The d x d matrix G with phi(a, b) = b^H G a over the basis."""
        if self.kind == GRAM:
            G = self._gram_payload(alg)
        else:
            S = self.payload
            w, V = np.linalg.eigh((S + S.conj().T) / 2.0)
            root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
            P = np.column_stack([(m @ root).reshape(-1) for m in alg.basis])
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
        return {"kind": self.kind, key: complex_matrix_jsonable(self.payload), "label": self.label}

    def __repr__(self):
        return f"IpsForm({self.kind}, dim={self.payload.shape[0]}, label={self.label!r})"


def form_equal(phi: IpsForm, psi: IpsForm, alg: QuasiAlgebraInstance,
               tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Extensional equality: the two Gram matrices agree within tolerance."""
    Gp, Gq = phi.gram(alg), psi.gram(alg)
    scale = max(float(np.linalg.norm(Gp, 2)), float(np.linalg.norm(Gq, 2)), 1e-300)
    return float(np.linalg.norm(Gp - Gq, 2)) <= tol.form * scale


def form_proportional(phi: IpsForm, psi: IpsForm, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality up to a positive factor.  Twist words can reproduce a form
    at a different overall scale; every consumer either normalizes per
    form or is scale covariant, so closures treat multiples as duplicates."""
    Gp, Gq = phi.gram(alg), psi.gram(alg)
    np_, nq = float(np.linalg.norm(Gp, 2)), float(np.linalg.norm(Gq, 2))
    if np_ == 0.0 or nq == 0.0:
        return np_ == nq
    return _has_direction([Gq / nq], Gp / np_, tol)


def _has_direction(units, U, tol: ToleranceConfig) -> bool:
    """Whether the unit-norm Gram matrix U is one of ``units`` within tol.form."""
    return any(float(np.linalg.norm(U - K, 2)) <= tol.form for K in units)


def _right_mults(alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """The instance's stacked A0 right-multiplication matrices, provided
    every one of them stays inside the span at this tolerance."""
    R0, rel = alg.right_mult_table
    bad = np.flatnonzero(rel > tol.structure * 100)
    if bad.size:
        j = int(bad[0])
        raise ClosureViolation("right module action", rel[j], indices=alg.a0_indices[j])
    return R0


def twist(phi: IpsForm, x: Element, tol: ToleranceConfig = DEFAULT_TOL) -> IpsForm:
    """The twisted form phi^x(a, b) = phi(a.x, b.x) for x in the subalgebra."""
    member, _, res = x.in_a0(tol)
    if not member:
        raise NotInA0(f"twist element outside the subalgebra: residual {res:.3e}")
    if phi.kind == VECTOR_STATE:
        X = x.matrix
        S = X @ phi.payload @ X.conj().T
        return IpsForm(VECTOR_STATE, (S + S.conj().T) / 2.0, label=f"{phi.label}^tw")
    R, rres = x.alg.right_mult_matrix(x.matrix)
    scale = max(x.norm_frobenius(), 1e-300)
    if rres > tol.structure * scale * 100:
        raise ClosureViolation("twist right-multiplication", rres / scale)
    G = R.conj().T @ phi.gram(x.alg) @ R
    return IpsForm(GRAM, (G + G.conj().T) / 2.0, label=f"{phi.label}^tw")


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


def _psd_margins(mat, tol: ToleranceConfig):
    """Return (hermiticity residual, min eig, max |eig|) of a square matrix."""
    scale = max(float(np.linalg.norm(mat, 2)), 1e-300)
    herm_res = float(np.linalg.norm(mat - mat.conj().T, 2)) / scale
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    wmax = float(np.abs(w).max(initial=0.0))
    wmin = float(w.min()) if w.size else 0.0
    return herm_res, wmin, wmax


def _rank(psd_mat, rank_tol):
    w = np.linalg.eigvalsh((psd_mat + psd_mat.conj().T) / 2.0)
    wmax = float(np.abs(w).max(initial=0.0))
    if wmax == 0.0:
        return 0
    return int(np.sum(w > rank_tol * wmax))


def _ranks(G, alg: QuasiAlgebraInstance, tol: ToleranceConfig):
    """Numerical ranks of a Gram matrix and of its subalgebra block."""
    ix = np.asarray(alg.a0_indices)
    return _rank(G, tol.rank), _rank(G[np.ix_(ix, ix)], tol.rank)


@dataclass(frozen=True)
class QuotientSection:
    """The kept eigenpairs (w, V) of a positive matrix M, the section
    V diag(w)^(-1/2), the dropped directions, and the top |eigenvalue|."""

    w: np.ndarray
    V: np.ndarray
    section: np.ndarray
    null_dirs: np.ndarray
    wmax: float

    def leak(self, T) -> float:
        """Largest |eigenvalue| of the Hermitian T on the dropped directions."""
        if not self.null_dirs.shape[1]:
            return 0.0
        L = self.null_dirs.conj().T @ T @ self.null_dirs
        return float(np.abs(np.linalg.eigvalsh((L + L.conj().T) / 2.0)).max(initial=0.0))

    def gain(self, T) -> float:
        """Largest sqrt(z^H T z / z^H M z) over the essential range of M."""
        B = self.section.conj().T @ T @ self.section
        top = float(np.linalg.eigvalsh((B + B.conj().T) / 2.0).max(initial=0.0))
        return float(np.sqrt(max(top, 0.0)))


def quotient_section(M, rank_tol: float) -> QuotientSection:
    """Split a positive matrix into its essential range and null directions."""
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    wmax = float(np.abs(w).max(initial=0.0))
    keep = w > rank_tol * max(wmax, 1e-300)
    return QuotientSection(w[keep], V[:, keep], V[:, keep] @ np.diag(1.0 / np.sqrt(w[keep])),
                           V[:, ~keep], wmax)


def invariance_residual(phi: IpsForm, alg: QuasiAlgebraInstance,
                        tol: ToleranceConfig = DEFAULT_TOL):
    """Max residual of phi(a.x, y) - phi(x, a^H.y) over all basis triples.

    Returns ``(residual, scale)``; the identity is required of every stored
    form and is what lets representation matrices act on the quotient.
    """
    G = phi.gram(alg)
    R0 = _right_mults(alg, tol)
    Sstar, _ = alg.star_matrix()
    ix = np.asarray(alg.a0_indices)
    # lhs[j, k, i] = phi(a_i x_j, x_k) and rhs[j, k, i] = phi(x_j, a_i^H x_k)
    lhs = G[ix, :] @ R0
    rhs = (Sstar.conj().T @ (R0.conj().transpose(0, 2, 1) @ G[:, ix])).transpose(2, 0, 1)
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    bnorm = max(float(np.linalg.norm(b)) for b in alg.basis)
    scale = (1.0 + float(np.linalg.norm(G, 2))) * (1.0 + bnorm) ** 2
    return worst, scale


def validate_ips_form(phi: IpsForm, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      require_density: bool = True) -> FormReport:
    """Full validation of one form against one instance.

    Checks, in order: Hermitian payload, positive semidefiniteness within
    the eigenvalue floor, module invariance, and (unless disabled) density
    of the subalgebra image in the quotient, decided by Gram ranks.
    """
    report = FormReport(label=phi.label, kind=phi.kind)

    herm_res, wmin, wmax = _psd_margins(phi.payload, tol)
    report.checks.append(CheckResult(
        "payload-hermitian", herm_res <= tol.psd, {"residual": herm_res}))
    margin = wmin / wmax if wmax > 0 else 0.0
    report.checks.append(CheckResult(
        "payload-positive", wmin >= -tol.psd * max(wmax, 1e-300),
        {"min_eig": wmin, "max_eig": wmax, "relative_margin": margin}))

    inv_res, inv_scale = invariance_residual(phi, alg, tol)
    report.checks.append(CheckResult(
        "module-invariance", inv_res <= tol.form * inv_scale,
        {"residual": inv_res, "scale": inv_scale}))

    report.rank_full, report.rank_sub = _ranks(phi.gram(alg), alg, tol)
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
    return _dense(phi.gram(alg), alg, tol)


def _dense(G, alg: QuasiAlgebraInstance, tol: ToleranceConfig) -> bool:
    full, sub = _ranks(G, alg, tol)
    return full == sub


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
        ctx = self.context(alg, tol)
        if ctx.sufficiency is None:
            ctx.sufficiency = check_sufficiency(self, alg, tol)
        return ctx.sufficiency

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
        return cls(
            gens,
            balanced=bool(payload.get("balanced", False)),
            twist_depth=int(payload.get("twist_depth", 1)),
            label=str(payload.get("label", "family")),
        )

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
        self.sufficiency = None

    @cached_property
    def seed_grams(self):
        return tuple(phi.gram(self.alg) for phi in self.seeds)

    @cached_property
    def closure(self):
        """(members, Gram matrices, spectral norms) of the effective family."""
        return self._grown[:3]

    @cached_property
    def untwisted(self):
        """The closure members that building the closure never twisted: the
        last round's additions, or every member at depth 0.  Every other
        member's twists were pushed and found in the closure or zero."""
        return self._grown[3]

    @cached_property
    def _grown(self):
        if not self.balanced:
            return self.seeds, self.seed_grams, tuple(
                float(np.linalg.norm(G, 2)) for G in self.seed_grams), self.seeds
        alg, tol = self.alg, self.tol
        members, grams, norms, units = [], [], [], []

        def push(form, G):
            gn = float(np.linalg.norm(G, 2))
            if gn <= 1e-14 * max(max(norms, default=0.0), 1.0) or \
                    _has_direction(units, G / gn, tol):
                return False
            members.append(form)
            grams.append(G)
            norms.append(gn)
            units.append(G / gn)
            return True

        for phi, G in zip(self.seeds, self.seed_grams):
            push(phi, G)
        frontier = self.seeds
        for _ in range(self.depth):
            new = []
            for phi in frontier:
                for j in range(alg.a0_dim):
                    tw = twist(phi, alg.a0_basis_element(j), tol)
                    if push(tw, tw.gram(alg)):
                        new.append(tw)
            frontier = new
        return tuple(members), tuple(grams), tuple(norms), \
            tuple(frontier) if self.depth > 0 else tuple(members)

    @cached_property
    def nonzero(self):
        """Labels and stacked normalized Gram matrices of the nonzero members."""
        members, grams, norms = self.closure
        keep = [i for i, gn in enumerate(norms) if gn > 0]
        d = self.alg.dim
        return ([members[i].label for i in keep],
                np.reshape([grams[i] / norms[i] for i in keep], (-1, d, d)))

    @cached_property
    def gram_sum(self):
        """Eigenpairs of the summed normalized Grams, and its null mask."""
        T = self.nonzero[1].sum(axis=0)
        w, V = np.linalg.eigh((T + T.conj().T) / 2.0)
        wmax = float(np.abs(w).max(initial=0.0))
        return w, V, w <= self.tol.rank * max(wmax, 1e-300)

    @cached_property
    def sections(self):
        """Per seed, the quotient section of its subalgebra Gram block."""
        ix = np.asarray(self.alg.a0_indices)
        return tuple(quotient_section(G[np.ix_(ix, ix)], self.tol.rank)
                     for G in self.seed_grams)

    @cached_property
    def member_sections(self):
        """Per closure member, the quotient section of its whole Gram matrix."""
        return tuple(quotient_section(G, self.tol.rank) for G in self.closure[1])

    @cached_property
    def dense_seeds(self):
        return tuple(phi for phi, G in zip(self.seeds, self.seed_grams)
                     if _dense(G, self.alg, self.tol))

    def dense_forms(self):
        if not self.dense_seeds:
            raise NotIps("no family generator satisfies the density requirement")
        return self.dense_seeds

    @cached_property
    def reps(self):
        """Representations of the dense seeds, in seed order."""
        from .gns import build_gns
        return tuple(build_gns(phi, self.alg, self.tol) for phi in self.dense_forms())

    @cached_property
    def rep_blocks(self):
        """Per representation, the columns vec(pi(a_i)) over the basis."""
        return tuple(np.stack(rep.rep_mats).reshape(self.alg.dim, -1).T for rep in self.reps)

    @cached_property
    def weak_system(self):
        """``(M, U, s, Vh)``: row (member, j, k) of M holds phi(a_i.x_j, x_k)
        / |phi| over i for the nonzero members, with M's thin SVD."""
        units = self.nonzero[1]
        R0 = _right_mults(self.alg, self.tol)
        ix = np.asarray(self.alg.a0_indices)
        M = (units[:, None, ix, :] @ R0[None]).reshape(-1, self.alg.dim)
        return (M, *np.linalg.svd(M, full_matrices=False))


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
    report = FamilyReport(label=family.label, balanced=family.balanced,
                          twist_depth=family.twist_depth)
    for phi in family.seeds:
        report.seed_reports.append(validate_ips_form(phi, alg, tol, require_density=False))

    ctx = family.context(alg, tol)
    members, grams, norms = ctx.closure
    report.closure_size = len(members)

    worst_pos = 0.0
    worst_inv = 0.0
    seed_ids = {id(s) for s in family.seeds}
    for phi, G in zip(members, grams):
        if id(phi) in seed_ids:
            continue
        herm_res, wmin, wmax = _psd_margins(G, tol)
        worst_pos = max(worst_pos, herm_res, -wmin / max(wmax, 1e-300))
        inv_res, inv_scale = invariance_residual(phi, alg, tol)
        worst_inv = max(worst_inv, inv_res / inv_scale)
    report.checks.append(CheckResult(
        "closure-positivity", worst_pos <= tol.psd, {"worst_relative_defect": worst_pos}))
    report.checks.append(CheckResult(
        "closure-invariance", worst_inv <= tol.form, {"worst_relative_residual": worst_inv}))

    if family.balanced:
        stable = True
        worst = ""
        top = max(norms, default=0.0)
        units = ctx.nonzero[1]
        for phi in ctx.untwisted:
            for j in range(alg.a0_dim):
                Gt = twist(phi, alg.a0_basis_element(j), tol).gram(alg)
                gn = float(np.linalg.norm(Gt, 2))
                if gn <= 1e-12 * max(top, 1.0):
                    continue
                if not _has_direction(units, Gt / gn, tol):
                    stable = False
                    worst = f"{phi.label} twisted by basis index {alg.a0_indices[j]}"
        report.checks.append(CheckResult(
            "twist-stability", stable,
            {"closure_size": len(members)},
            note=worst or "closure reproduces itself under basis twists"))
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
            out["witness_coeffs"] = [[float(z.real), float(z.imag)] for z in self.witness_coeffs]
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
    members, grams, norms = family.context(alg, tol).closure
    R0 = _right_mults(alg, tol)
    ix = np.asarray(alg.a0_indices)
    AX = (R0 @ a.coeffs).T
    r1 = r2 = r3 = r4 = 0.0
    for phi, G in zip(members, grams):
        Q = (G @ AX)[ix, :]
        H = (Q + Q.conj().T) / 2.0
        K = (Q - Q.conj().T) / 2.0
        r1 = max(r1, float(np.linalg.norm(H, 2)), float(np.linalg.norm(K, 2)))
        r2 = max(r2, float(np.abs(Q).max(initial=0.0)))
        diag = np.einsum("ji,jk,ki->i", AX.conj(), G, AX).real
        r3 = max(r3, float(diag.max(initial=0.0)))
        r4 = max(r4, float(phi.eval(a, a).real))
    scale = (1.0 + max(norms, default=0.0)) * (1.0 + a.norm_frobenius()) ** 2
    return {"r1": r1, "r2": r2, "r3": r3, "r4": r4, "scale": scale}


def check_sufficiency(family: FormFamily, alg: QuasiAlgebraInstance,
                      tol: ToleranceConfig = DEFAULT_TOL) -> SufficiencyReport:
    """Decide whether the effective family separates points of the algebra.

    The joint null space is the kernel of the sum of the normalized Gram
    matrices.  A nonzero kernel direction is returned as a unit-Frobenius
    witness together with its value under every effective form, and the
    four-way degeneracy equivalence is exercised on the witness and on a
    small deterministic probe set.
    """
    if not family.seeds:
        raise EmptyFamily("family has no generators")
    ctx = family.context(alg, tol)
    forms = ctx.closure[0]
    quantifier = ("closure of the generators under basis twists"
                  if family.balanced else "stored generators, no twisting")

    w, V, null_mask = ctx.gram_sum
    wmax = float(np.abs(w).max(initial=0.0))
    dim_null = int(np.sum(null_mask))
    sufficient = dim_null == 0
    margin = (float(w.min()) if w.size else 0.0) / max(wmax, 1e-300)

    report = SufficiencyReport(
        label=family.label, sufficient=sufficient, dim_null=dim_null,
        margin=margin, depth=family.twist_depth if family.balanced else 0,
        quantifier=quantifier,
    )

    probes = [alg.unit, alg.basis_element(0)]
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(2):
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        e = alg.element(c)
        nf = e.norm_frobenius()
        if nf > 0:
            probes.append(e * (1.0 / nf))

    if not sufficient:
        wc = V[:, 0]
        witness = alg.element(wc)
        nf = witness.norm_frobenius()
        if nf > 0:
            witness = witness * (1.0 / nf)
        report.witness_coeffs = witness.coeffs
        for phi in forms:
            report.witness_values[phi.label] = float(phi.eval(witness, witness).real)
        report.max_witness_value = max(report.witness_values.values(), default=0.0)
        probes.append(witness)

    # four-way equivalence: the zero verdicts of r1/r2/r3 must agree on
    # every probe; r4 joins them when the family is balanced
    agree = True
    iv_agree = True
    rows = []
    for idx, pr in enumerate(probes):
        res = degeneracy_residuals(pr, family, alg, tol)
        thresh = tol.form * res["scale"]
        z1, z2, z3, z4 = (res[k] <= thresh for k in ("r1", "r2", "r3", "r4"))
        agree = agree and (z1 == z2 == z3)
        if family.balanced:
            iv_agree = iv_agree and (z4 == z1)
        rows.append({"probe": idx, **{k: res[k] for k in ("r1", "r2", "r3", "r4")}})
    report.checks.append(CheckResult(
        "degeneracy-equivalence-i-iii", agree, {"probes": rows}))
    if family.balanced:
        report.checks.append(CheckResult(
            "degeneracy-equivalence-iv", iv_agree, {},
            note="vanishing of phi(a, a) over the closure matches the pairing conditions"))
    return report
