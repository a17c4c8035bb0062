"""Finite matrix realizations of a quasi *-algebra over a *-subalgebra.

An instance is a complex matrix space A = span{a_1, ..., a_d} inside M_n
together with a distinguished subset of basis indices spanning a *-algebra
A0 that contains the unit.  A carries the involution a -> a^H and the left
and right A0 module actions; full products inside A are deliberately not
provided.  Membership in a span is always decided by least-squares residual
against the declared basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ClosureViolation,
    DependentBasis,
    MissingUnit,
    NotInA0,
    ParseError,
)
from .report import CheckResult, all_passed
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _is_int(value):
    # bool is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value):
    # json.loads also reads NaN and Infinity
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _as_complex_entry(value, source, field_name):
    """Accept a finite plain number or a finite [re, im] pair."""
    if _is_finite_number(value):
        return complex(value, 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if _is_finite_number(re) and _is_finite_number(im):
            return complex(re, im)
    raise ParseError(source, f"expected finite number or [re, im] pair, got {value!r}", field=field_name)


def parse_complex_matrix(rows, source, field_name, shape=None):
    """Parse a nested list of numbers / [re, im] pairs into a complex array."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(source, "expected a non-empty list of rows", field=field_name)
    mat = []
    width = None
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(source, f"row {r} is not a list", field=field_name)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(source, f"row {r} has length {len(row)}, expected {width}", field=field_name)
        mat.append([_as_complex_entry(v, source, field_name) for v in row])
    out = np.array(mat, dtype=complex)
    if shape is not None and out.shape != shape:
        raise ParseError(source, f"matrix has shape {out.shape}, expected {shape}", field=field_name)
    return out


def complex_matrix_jsonable(mat):
    """Emit a complex matrix as nested [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


class QuasiAlgebraInstance:
    """A matrix-realized quasi *-algebra with a distinguished *-subalgebra.

    Parameters
    ----------
    basis : sequence of (n, n) complex arrays, linearly independent.
    a0_indices : indices into ``basis`` whose span is the *-subalgebra.
    unit_index : index of the identity matrix in ``basis``; must belong to
        ``a0_indices``.
    label : free-form name used in reports.
    """

    def __init__(self, basis, a0_indices, unit_index, label=""):
        mats = [np.array(b, dtype=complex) for b in basis]
        if not mats:
            raise ParseError("<instance>", "empty basis", field="basis")
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (n, n):
                raise ParseError("<instance>", f"basis[{i}] has shape {m.shape}, expected {(n, n)}", field="basis")
            m.setflags(write=False)
        self.n = int(n)
        self.basis = tuple(mats)
        self.dim = len(mats)
        self.a0_indices = tuple(sorted(int(i) for i in a0_indices))
        if not self.a0_indices:
            raise ParseError("<instance>", "the subalgebra needs at least one basis index",
                             field="a0_indices")
        if len(set(self.a0_indices)) != len(self.a0_indices):
            raise ParseError("<instance>", "duplicate subalgebra indices", field="a0_indices")
        for i in self.a0_indices:
            if not 0 <= i < self.dim:
                raise ParseError("<instance>", f"subalgebra index {i} out of range", field="a0_indices")
        self.unit_index = int(unit_index)
        if not 0 <= self.unit_index < self.dim:
            raise ParseError("<instance>", f"unit index {self.unit_index} out of range", field="unit_index")
        self.label = str(label)

        # stacked vectorized basis: columns are vec(a_i)
        self._bmat = np.column_stack([m.reshape(-1) for m in self.basis])
        self._bmat.setflags(write=False)
        self._pinv = np.linalg.pinv(self._bmat)
        self._pinv.setflags(write=False)
        sub = np.column_stack([self.basis[i].reshape(-1) for i in self.a0_indices])
        self._pinv_a0 = np.linalg.pinv(sub)
        self._bmat_a0 = sub
        star = np.column_stack([m.conj().T.reshape(-1) for m in self.basis])
        S = self._pinv @ star
        self._star = (S, float(np.abs(self._bmat @ S - star).max(initial=0.0)))

    # -- membership ---------------------------------------------------------

    def coeffs_of(self, matrix):
        """Least-squares coefficients of ``matrix`` in the A basis.

        Returns ``(coeffs, residual)`` where residual is the Frobenius norm
        of the unrepresented part.
        """
        v = np.asarray(matrix, dtype=complex).reshape(-1)
        c = self._pinv @ v
        res = float(np.linalg.norm(self._bmat @ c - v))
        return c, res

    def a0_coeffs_of(self, matrix):
        """Coefficients over the A0 basis only, with membership residual."""
        v = np.asarray(matrix, dtype=complex).reshape(-1)
        c0 = self._pinv_a0 @ v
        res = float(np.linalg.norm(self._bmat_a0 @ c0 - v))
        return c0, res

    def element(self, coeffs) -> "Element":
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (self.dim,):
            raise ParseError("<element>", f"coefficient vector has shape {c.shape}, expected ({self.dim},)")
        return Element(self, c)

    def element_from_matrix(self, matrix, tol: ToleranceConfig = DEFAULT_TOL) -> "Element":
        m = np.asarray(matrix, dtype=complex)
        c, res = self.coeffs_of(m)
        scale = max(float(np.linalg.norm(m)), 1e-300)
        if res > tol.membership * scale:
            raise ClosureViolation("matrix outside the declared span", res / scale)
        return Element(self, c)

    @property
    def unit(self) -> "Element":
        c = np.zeros(self.dim, dtype=complex)
        c[self.unit_index] = 1.0
        return Element(self, c)

    def basis_element(self, i: int) -> "Element":
        c = np.zeros(self.dim, dtype=complex)
        c[i] = 1.0
        return Element(self, c)

    @property
    def a0_dim(self) -> int:
        return len(self.a0_indices)

    def a0_basis_element(self, j: int) -> "Element":
        """The j-th subalgebra basis element, as an element of A."""
        return self.basis_element(self.a0_indices[j])

    # -- multiplication tables ---------------------------------------------

    def right_mult_matrix(self, xmat):
        """Coefficient matrix of a |-> a.x: column j holds coeffs(a_j @ x).

        Returns ``(R, max_residual)``; a large residual means right
        multiplication by ``xmat`` leaves the span.
        """
        prods = np.column_stack([(self.basis[j] @ xmat).reshape(-1) for j in range(self.dim)])
        R = self._pinv @ prods
        res = float(np.abs(self._bmat @ R - prods).max(initial=0.0))
        return R, res

    def left_mult_matrix(self, xmat):
        """Coefficient matrix of a |-> x.a: column j holds coeffs(x @ a_j)."""
        prods = np.column_stack([(xmat @ self.basis[j]).reshape(-1) for j in range(self.dim)])
        L = self._pinv @ prods
        res = float(np.abs(self._bmat @ L - prods).max(initial=0.0))
        return L, res

    def star_matrix(self):
        """Coefficient matrix of the involution: column i holds coeffs(a_i^H).
        Returns ``(S, max_residual)``."""
        return self._star

    @cached_property
    def right_mult_table(self):
        """``(R0, rel_res)``: ``R0[j]`` is the right-multiplication matrix of
        the j-th subalgebra basis element and ``rel_res[j]`` its residual
        relative to that element's norm, for callers to judge at their tol."""
        mats, res = zip(*(self.right_mult_matrix(self.basis[j]) for j in self.a0_indices))
        scale = [max(float(np.linalg.norm(self.basis[j])), 1e-300) for j in self.a0_indices]
        R0 = np.stack(mats)
        R0.setflags(write=False)
        return R0, np.array(res) / scale

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, payload, source="<instance>"):
        if not isinstance(payload, dict):
            raise ParseError(source, "instance payload must be an object")
        for key in ("n", "basis", "a0_indices", "unit_index"):
            if key not in payload:
                raise ParseError(source, f"missing required key '{key}'", field=key)
        n = payload["n"]
        if not _is_int(n) or n < 1:
            raise ParseError(source, f"n must be a positive integer, got {n!r}", field="n")
        basis_raw = payload["basis"]
        if not isinstance(basis_raw, list) or not basis_raw:
            raise ParseError(source, "basis must be a non-empty list", field="basis")
        basis = [parse_complex_matrix(b, source, f"basis[{i}]", shape=(n, n)) for i, b in enumerate(basis_raw)]
        a0 = payload["a0_indices"]
        if not isinstance(a0, list) or not all(_is_int(i) for i in a0):
            raise ParseError(source, "a0_indices must be a list of integers", field="a0_indices")
        unit = payload["unit_index"]
        if not _is_int(unit):
            raise ParseError(source, "unit_index must be an integer", field="unit_index")
        return cls(basis, a0, unit, label=str(payload.get("label", "")))

    def as_jsonable(self):
        return {
            "n": self.n,
            "basis": [complex_matrix_jsonable(b) for b in self.basis],
            "a0_indices": list(self.a0_indices),
            "unit_index": self.unit_index,
            "label": self.label,
        }


class Element:
    """A vector in the algebra: coefficients over the declared basis."""

    __slots__ = ("alg", "coeffs", "_matrix")

    def __init__(self, alg: QuasiAlgebraInstance, coeffs):
        self.alg = alg
        c = np.array(coeffs, dtype=complex)
        c.setflags(write=False)
        self.coeffs = c
        self._matrix = None

    @property
    def matrix(self):
        if self._matrix is None:
            m = (self.alg._bmat @ self.coeffs).reshape(self.alg.n, self.alg.n)
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def star(self) -> "Element":
        """The involution a^H, re-expressed in the basis.

        Antilinear: the coefficient vector is conjugated before the basis
        star map is applied.
        """
        S, _ = self.alg.star_matrix()
        return Element(self.alg, S @ self.coeffs.conj())

    def norm_frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        # elements at absolute noise level count as Hermitian: cancellation
        # can leave skew residue of order eps with nothing left to scale by
        m = self.matrix
        nrm = float(np.linalg.norm(m))
        if nrm <= 1e-12:
            return True
        return float(np.linalg.norm(m - m.conj().T)) <= tol * nrm

    def in_a0(self, tol: ToleranceConfig = DEFAULT_TOL):
        """Return (member, a0_coeffs, residual) for A0 membership."""
        c0, res = self.alg.a0_coeffs_of(self.matrix)
        scale = max(self.norm_frobenius(), 1e-300)
        return res <= tol.membership * scale, c0, res

    def __add__(self, other: "Element") -> "Element":
        return Element(self.alg, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.alg, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Element":
        return Element(self.alg, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return Element(self.alg, -self.coeffs)

    def allclose(self, other: "Element", tol: float = 1e-12) -> bool:
        scale = max(self.norm_frobenius(), other.norm_frobenius(), 1e-300)
        return float(np.linalg.norm(self.matrix - other.matrix)) <= tol * scale

    def __repr__(self):
        return f"Element(dim={self.alg.dim}, |a|_F={self.norm_frobenius():.6g})"


@dataclass
class ValidationReport:
    """Axiom-by-axiom residual report for one instance."""

    label: str
    checks: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return all_passed(self.checks)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "valid": self.valid,
            "checks": [c.as_dict() for c in self.checks],
        }


def validate_structure(alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check every structural axiom of the instance and report residuals.

    Each span-closure check stacks all its products (or adjoints) as the
    columns of one matrix and projects them onto the span in one shot,
    reporting the largest residual relative to the factors' Frobenius
    norms, with the indices where it occurs.  Associativity and the
    anti-homomorphism law are probed on a few seeded random combinations.

    Pure and deterministic: the same instance and tolerances produce the
    same report.  Nothing is raised for mathematical failures; use
    ``ensure_valid`` for the raising variant.
    """
    checks = []
    n, d = alg.n, alg.dim

    sv = np.linalg.svd(alg._bmat, compute_uv=False)
    smax = float(sv[0]) if len(sv) else 0.0
    smin = float(sv[-1]) if len(sv) else 0.0
    ratio = smin / smax if smax > 0 else 0.0
    checks.append(CheckResult(
        "basis-independence",
        ratio > tol.rank,
        {"sigma_min": smin, "sigma_max": smax, "ratio": ratio},
    ))

    unit_mat = alg.basis[alg.unit_index]
    unit_res = float(np.linalg.norm(unit_mat - np.eye(n))) / max(np.sqrt(n), 1.0)
    unit_in_a0 = alg.unit_index in alg.a0_indices
    checks.append(CheckResult(
        "unit-element",
        unit_res <= tol.structure and unit_in_a0,
        {"residual": unit_res, "unit_in_subalgebra": unit_in_a0},
    ))

    ix = list(alg.a0_indices)
    B = np.stack(alg.basis)
    X = B[ix]
    nb = np.linalg.norm(B.reshape(d, -1), axis=1)
    nx = nb[ix]

    def closure(name, prods, scale, key, where, sub):
        """Worst span residual of the products, relative to their scale;
        ``where`` maps the position of the worst product to its indices."""
        P = prods.reshape(-1, n * n).T
        bmat, pinv = (alg._bmat_a0, alg._pinv_a0) if sub else (alg._bmat, alg._pinv)
        rel = np.linalg.norm(bmat @ (pinv @ P) - P, axis=0) / np.maximum(scale.reshape(-1), 1e-300)
        worst = float(rel.max(initial=0.0))
        at = where(*(int(i) for i in np.unravel_index(np.argmax(rel), scale.shape))) if worst > 0 else None
        checks.append(CheckResult(name, worst <= tol.structure, {"max_residual": worst, key: at}))

    def adj(M):
        return M.conj().swapaxes(-1, -2)

    closure("subalgebra-product-closure", X[:, None] @ X[None], np.outer(nx, nx),
            "worst_pair", lambda j, k: (ix[j], ix[k]), sub=True)
    closure("subalgebra-involution-closure", adj(X), nx,
            "worst_index", lambda j: ix[j], sub=True)
    closure("involution-closure", adj(B), nb,
            "worst_index", lambda i: i, sub=False)
    closure("bimodule-closure", np.stack([X[:, None] @ B, B @ X[:, None]], axis=2),
            np.repeat(np.outer(nx, nb)[:, :, None], 2, axis=2),
            "worst_triple", lambda j, i, s: (("left", "right")[s], ix[j], i), sub=False)

    # (x a) y = x (a y), a (x y) = (a x) y and (a x)^H = x^H a^H hold
    # identically for matrices, so their residuals certify only the
    # floating-point arithmetic.  Freivalds-style, they are taken on a few
    # random unit combinations x, y of A0 and a of A, from a fixed local
    # seed so that reports stay deterministic.
    rng = np.random.default_rng(1977)

    def combos(M):
        c = rng.standard_normal((4, len(M))) + 1j * rng.standard_normal((4, len(M)))
        return np.tensordot(c / np.linalg.norm(c, axis=1, keepdims=True), M, axes=1)

    x, y, a = combos(X), combos(X), combos(B)

    def norms(M):
        return np.linalg.norm(M, axis=(1, 2))

    scale = np.maximum(norms(x) * norms(y) * norms(a), 1e-300)
    worst = max(float((norms((x @ a) @ y - x @ (a @ y)) / scale).max()),
                float((norms(a @ (x @ y) - (a @ x) @ y) / scale).max()))
    checks.append(CheckResult(
        "associativity",
        worst <= tol.structure,
        {"max_residual": worst},
    ))

    worst = float((norms(adj(a @ x) - adj(x) @ adj(a)) / np.maximum(norms(x) * norms(a), 1e-300)).max())
    checks.append(CheckResult(
        "involution-antihomomorphism",
        worst <= tol.structure,
        {"max_residual": worst},
    ))

    return ValidationReport(label=alg.label, checks=checks)


_RAISE_MAP = {
    "basis-independence": DependentBasis,
    "unit-element": MissingUnit,
}


def ensure_valid(alg: QuasiAlgebraInstance, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Validate and raise a typed error on the first failing axiom."""
    report = validate_structure(alg, tol)
    for check in report.checks:
        if check.passed:
            continue
        exc = _RAISE_MAP.get(check.name)
        if exc is not None:
            raise exc(f"{check.name}: {check.data}")
        raise ClosureViolation(check.name, check.data.get("max_residual", 0.0),
                               indices=check.data.get("worst_pair") or check.data.get("worst_triple")
                               or check.data.get("worst_index"))
    return report


def hermitian_parts(a: Element):
    """Split a = re + i.im into Hermitian parts, by coefficient arithmetic."""
    s = a.star()
    re = Element(a.alg, (a.coeffs + s.coeffs) / 2.0)
    im = Element(a.alg, (a.coeffs - s.coeffs) / 2.0j)
    return re, im


def module_product(x: Element, a: Element, side: str = "left",
                   tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Module action of the subalgebra element x on a.

    side='left' returns x.a, side='right' returns a.x.  Raises NotInA0 when
    x is outside the subalgebra span and ClosureViolation when the product
    leaves the algebra span.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    member, _, res = x.in_a0(tol)
    if not member:
        raise NotInA0(f"left/right factor outside the subalgebra: residual {res:.3e}")
    prod = x.matrix @ a.matrix if side == "left" else a.matrix @ x.matrix
    c, r = x.alg.coeffs_of(prod)
    scale = max(x.norm_frobenius() * a.norm_frobenius(), 1e-300)
    if r > tol.membership * scale:
        raise ClosureViolation(f"module product ({side})", r / scale)
    return Element(x.alg, c)
