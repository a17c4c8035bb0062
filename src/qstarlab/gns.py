"""Representation of a form on the quotient of the subalgebra.

For a valid dense form phi the subalgebra maps into a finite-dimensional
inner-product space: eigendecompose the subalgebra Gram matrix, drop the
null directions, and use coordinates z = W^(1/2) V^H c so the standard
inner product reproduces phi.  Every algebra element then acts on those
coordinates, the unit maps to a cyclic vector, and pairing the action
against the cyclic vector recovers the form exactly.

``build_gns`` computes afresh on every call; a family keeps the
representations of its dense seeds in its ``FamilyContext``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Element, QuasiAlgebraInstance
from .errors import NotIps, ZeroForm
from .forms import GRAM, IpsForm, _dense, _right_mults, quotient_section
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass
class GnsRep:
    """A concrete representation: coordinates, action matrices, cyclic vector.

    ``lam`` maps subalgebra coefficients to coordinates, and
    ``rep_mats[i]`` is the action of the i-th basis element.
    ``residual_lambda`` and ``residual_rep`` record how exactly the extended
    coordinate map and the action matrices satisfy their defining equations;
    both are noise-level for a valid form.
    """

    alg: QuasiAlgebraInstance
    form: IpsForm
    dim_H: int
    lam: np.ndarray
    rep_mats: tuple
    cyclic: np.ndarray
    residual_lambda: float
    residual_rep: float

    def lambda_vec(self, a: Element) -> np.ndarray:
        """Coordinates of the class of any algebra element."""
        g = (self.form.gram(self.alg) @ a.coeffs)[np.asarray(self.alg.a0_indices)]
        # lam^H t = g; lam^H has full column rank, so lstsq is exact on consistent data
        return np.linalg.lstsq(self.lam.conj().T, g, rcond=None)[0]

    def rep_matrix(self, a: Element) -> np.ndarray:
        """Action of ``a`` on the coordinate space."""
        out = np.zeros((self.dim_H, self.dim_H), dtype=complex)
        for c, P in zip(a.coeffs, self.rep_mats):
            if c != 0:
                out += c * P
        return out

    def rep_norm(self, a: Element) -> float:
        """Operator norm of the action of ``a``."""
        if self.dim_H == 0:
            return 0.0
        return float(np.linalg.norm(self.rep_matrix(a), 2))

    def vector_form(self, xi=None) -> IpsForm:
        """The form a, b -> <act(a) xi, act(b) xi>, as a Gram-kind form.

        With the default cyclic vector this reconstructs the original form;
        with xi the class of some subalgebra element x it produces the twist
        of the form by x.
        """
        vec = self.cyclic if xi is None else np.asarray(xi, dtype=complex)
        Z = np.column_stack([P @ vec for P in self.rep_mats])
        G = Z.conj().T @ Z
        return IpsForm(GRAM, (G + G.conj().T) / 2.0, label=f"{self.form.label}~vec")


def build_gns(phi: IpsForm, alg: QuasiAlgebraInstance,
              tol: ToleranceConfig = DEFAULT_TOL) -> GnsRep:
    """Construct the representation of a dense form."""
    G = phi.gram(alg)
    gnorm = float(np.linalg.norm(G, 2))
    if gnorm <= 1e-300:
        raise ZeroForm("cannot represent the zero form")
    if not _dense(G, alg, tol):
        raise NotIps(f"form {phi.label!r}: subalgebra is not dense in the quotient")

    ix = np.asarray(alg.a0_indices)
    sec = quotient_section(G[np.ix_(ix, ix)], tol.rank)
    if not sec.w.size:
        raise ZeroForm("form vanishes on the subalgebra")
    lam = np.diag(np.sqrt(sec.w)) @ sec.V.conj().T     # r x n0, lam @ sec.section = I

    # GR[k][:, i] pairs a_i x_k against the subalgebra basis; coords[k][:, i]
    # are the coordinates of its class, and cols[i][:, k] regroups them
    R0 = _right_mults(alg, tol)
    GR = G[ix, :] @ R0
    coords = sec.section.conj().T @ GR
    res_lambda = float(np.linalg.norm(lam.conj().T @ coords - GR, axis=1).max(initial=0.0))
    cols = coords.transpose(2, 1, 0)
    rep_mats = cols @ np.linalg.pinv(lam)
    res_rep = float(np.linalg.norm(rep_mats @ lam - cols, axis=(1, 2)).max(initial=0.0))

    unit0, ures = alg.a0_coeffs_of(alg.unit.matrix)
    if ures > tol.membership * max(1.0, float(np.linalg.norm(alg.unit.matrix))):
        raise NotIps("unit element is not expressible inside the subalgebra")

    scale = max(gnorm, 1.0)
    return GnsRep(
        alg=alg, form=phi, dim_H=int(sec.w.size), lam=lam,
        rep_mats=tuple(rep_mats), cyclic=lam @ unit0,
        residual_lambda=res_lambda / scale, residual_rep=res_rep / scale,
    )


def reconstruction_defect(rep: GnsRep) -> float:
    """Relative Gram distance between the form and its cyclic reconstruction."""
    G = rep.form.gram(rep.alg)
    H = rep.vector_form().gram(rep.alg)
    return float(np.linalg.norm(G - H, 2)) / max(float(np.linalg.norm(G, 2)), 1e-300)
