"""Representation of a form on the quotient of the subalgebra.

For a valid dense form phi the subalgebra maps into a finite-dimensional
inner-product space: eigendecompose the subalgebra Gram matrix, drop the
null directions, and use coordinates z = W^(1/2) V^H c so the standard
inner product reproduces phi.  Every algebra element then acts on those
coordinates, the unit maps to a cyclic vector, and pairing the action
against the cyclic vector recovers the form exactly.

``build_gns`` runs ``represent`` on a form's own Gram matrix; a family runs
it on the Grams and sections its ``FamilyContext`` holds, and keeps the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Element, QuasiAlgebraInstance, _squared_moduli, blocks, spectral_norm
from .errors import NotIps, ZeroForm
from .forms import GRAM, IpsForm, _hermitian_part, _right_mults, gram_sections
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass
class GnsRep:
    """A concrete representation: coordinates, action matrices, cyclic vector.

    ``lam`` maps subalgebra coefficients to coordinates, the read-only
    (d, r, r) array ``rep_mats`` holds the action of each basis element, and
    ``gram`` is the form's Gram matrix the representation was built from.
    ``residual_lambda`` and ``residual_rep`` record how exactly the extended
    coordinate map and the action matrices satisfy their defining equations;
    both are noise-level for a valid form.
    """

    alg: QuasiAlgebraInstance
    form: IpsForm
    gram: np.ndarray
    dim_H: int
    lam: np.ndarray
    rep_mats: np.ndarray
    cyclic: np.ndarray
    residual_lambda: float
    residual_rep: float

    def lambda_vec(self, a: Element) -> np.ndarray:
        """Coordinates of the class of any algebra element."""
        g = (self.gram @ a.coeffs)[np.asarray(self.alg.a0_indices)]
        # lam^H t = g; lam^H has full column rank, so lstsq is exact on consistent data
        return np.linalg.lstsq(self.lam.conj().T, g, rcond=None)[0]

    def rep_matrix(self, a) -> np.ndarray:
        """Action of the element ``a`` on the coordinate space, or the stack
        of actions of the rows of a (k, d) coefficient stack."""
        C = a.coeffs if isinstance(a, Element) else np.asarray(a)
        return (C @ self.rep_mats.reshape(C.shape[-1], -1)).reshape(C.shape[:-1] + (self.dim_H,) * 2)

    def rep_norm(self, a):
        """Operator norm of the action of ``a``, or one per row of a
        coefficient stack from one batched SVD; NaN for a non-finite action."""
        P = self.rep_matrix(a)
        bad = ~np.isfinite(P).all(axis=(-2, -1))
        top = np.linalg.svd(np.where(bad[..., None, None], 0.0, P), compute_uv=False)
        return np.where(bad, np.nan, top.max(axis=-1, initial=0.0))[()]

    def vector_form(self, xi=None) -> IpsForm:
        """The form a, b -> <act(a) xi, act(b) xi>, as a Gram-kind form.

        With the default cyclic vector this reconstructs the original form;
        with xi the class of some subalgebra element x it produces the twist
        of the form by x.
        """
        vec = self.cyclic if xi is None else np.asarray(xi, dtype=complex)
        Z = (self.rep_mats @ vec).T
        return IpsForm(GRAM, _hermitian_part(Z.conj().T @ Z), label=f"{self.form.label}~vec")


def build_gns(phi: IpsForm, alg: QuasiAlgebraInstance,
              tol: ToleranceConfig = DEFAULT_TOL) -> GnsRep:
    """Construct the representation of a dense form."""
    G = phi.gram(alg)
    return represent(phi, G, gram_sections(G, alg, tol), alg, tol)


def represent(phi: IpsForm, G, sections, alg: QuasiAlgebraInstance,
              tol: ToleranceConfig) -> GnsRep:
    """The representation of phi from its Gram G and ``gram_sections(G)``."""
    full, sec = sections
    if full.wmax <= 1e-300:
        raise ZeroForm("cannot represent the zero form")
    if full.w.size != sec.w.size:
        raise NotIps(f"form {phi.label!r}: subalgebra is not dense in the quotient")
    if not sec.w.size:
        raise ZeroForm("form vanishes on the subalgebra")
    lam = np.diag(np.sqrt(sec.w)) @ sec.V.conj().T     # r x n0, sec.section is its pinv
    ix = np.asarray(alg.a0_indices)

    # GR[k][:, i] pairs a_i x_k against the subalgebra basis; coords[k][:, i]
    # are the coordinates of its class, and cols[i][:, k] regroups them.  GR
    # and its residual are formed in blocks of whole x_k, as ``algebra`` does
    R0 = _right_mults(alg, tol)
    GX, secH = G[ix, :], sec.section.conj().T
    coords = np.empty((len(ix), sec.w.size, alg.dim), dtype=complex)
    sq_lambda = np.empty(len(ix))
    for kb in blocks(len(ix), GX.nbytes):
        GR = GX @ R0[kb]
        np.matmul(secH, GR, out=coords[kb])
        # each residual in its own buffer, its squared norms read from there
        D = lam.conj().T @ coords[kb]
        D -= GR
        sq_lambda[kb] = _squared_moduli(D).sum(axis=1).max(axis=1, initial=0.0)
        del GR, D
    cols = coords.transpose(2, 1, 0)
    rep_mats = cols @ sec.section
    D = rep_mats @ lam
    D -= cols
    res_lambda = math.sqrt(float(sq_lambda.max(initial=0.0)))
    res_rep = math.sqrt(float(_squared_moduli(D).sum(axis=(1, 2)).max(initial=0.0)))

    unit0, ures = alg.a0_coeffs_of(alg.unit.matrix)
    if ures > tol.membership * max(1.0, float(np.linalg.norm(alg.unit.matrix))):
        raise NotIps("unit element is not expressible inside the subalgebra")

    # under phi -> c phi the pairings GR scale like c and the coordinates like
    # c^(1/2), so each residual is taken relative to its own power of |G|_2
    rep_mats.setflags(write=False)
    return GnsRep(
        alg=alg, form=phi, gram=G, dim_H=int(sec.w.size), lam=lam,
        rep_mats=rep_mats, cyclic=lam @ unit0,
        residual_lambda=res_lambda / full.wmax, residual_rep=res_rep / full.wmax ** 0.5,
    )


def reconstruction_defect(rep: GnsRep) -> float:
    """Relative Gram distance between the form and its cyclic reconstruction."""
    G, H = rep.gram, rep.vector_form().gram(rep.alg)
    return spectral_norm(G - H) / max(spectral_norm(G), 1e-300)
