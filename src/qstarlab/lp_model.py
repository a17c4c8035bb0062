"""Discrete weighted L^p model on k points.

Functions are diagonal matrices acting on themselves; the subalgebra is
the whole algebra.  A nonnegative weight vector w with
(sum_i w_i^s m_i)^(1/s) <= 1, where s = p/(p-2) (s = infinity at p = 2),
induces the form

    phi_w(f, g) = sum_i f_i conj(g_i) w_i m_i.

Sweeping w over the unit ball of the conjugate index recovers the p-norm:
sup_w phi_w(f, f) equals the squared L^p(m) norm of f, attained at
w ~ |f|^(p-2) (at w = 1 when p = 2).  The supremum is computed in closed
form and double-checked by a feasible-ascent oracle that can only ever
undershoot it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Element, QuasiAlgebraInstance
from .errors import BadExponent, BadMeasure, OutOfFloatRange, ZeroFunction
from .forms import VECTOR_STATE, FormFamily, IpsForm
from .tolerances import DEFAULT_TOL, ToleranceConfig


def conjugate_index(p: float) -> float:
    """s with 2/p + 1/s = 1; infinity at p = 2."""
    p = float(p)
    if not np.isfinite(p) or p < 2.0:
        raise BadExponent(f"exponent must satisfy p >= 2, got {p}")
    if p == 2.0:
        return float("inf")
    return p / (p - 2.0)


def _check_masses(masses):
    m = np.asarray(masses, dtype=float)
    if m.ndim != 1 or m.size == 0:
        raise BadMeasure("masses must be a non-empty vector")
    if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
        raise BadMeasure("masses must be finite and strictly positive")
    return m


def build_lp_instance(k: int, label: str = "") -> QuasiAlgebraInstance:
    """Diagonal algebra on k points; the unit is the first basis element."""
    if k < 1:
        raise BadMeasure(f"need at least one point, got k={k}")
    basis = [np.eye(k, dtype=complex)]
    for i in range(1, k):
        E = np.zeros((k, k), dtype=complex)
        E[i, i] = 1.0
        basis.append(E)
    return QuasiAlgebraInstance(basis, a0_indices=range(k), unit_index=0,
                                label=label or f"lp-diag-{k}")


@dataclass
class DiscreteLpAlgebra:
    """Instance plus measure; functions enter and leave as value vectors."""

    masses: np.ndarray
    inst: QuasiAlgebraInstance

    @classmethod
    def build(cls, masses):
        m = _check_masses(masses)
        return cls(masses=m, inst=build_lp_instance(m.size))

    @property
    def k(self) -> int:
        return self.masses.size

    def element(self, values) -> Element:
        v = np.asarray(values, dtype=complex)
        if v.shape != (self.k,):
            raise BadMeasure(f"expected {self.k} point values, got shape {v.shape}")
        coeffs = np.empty(self.k, dtype=complex)
        coeffs[0] = v[0]
        coeffs[1:] = v[1:] - v[0]
        return self.inst.element(coeffs)

    def values(self, a: Element):
        return np.diagonal(a.matrix).copy()

    def weight_form(self, w, label: str = "") -> IpsForm:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.k,) or np.any(w < 0.0):
            raise BadMeasure("weights must be nonnegative, one per point")
        S = np.diag((w * self.masses).astype(complex))
        return IpsForm(VECTOR_STATE, S, label=label or "weight")

    def point_family(self, p: float, label: str = "") -> FormFamily:
        """Forms of the sphere-normalized point weights; quantifies over the
        listed weights only, so it is stored without the closure policy."""
        s = conjugate_index(p)
        gens = []
        for i in range(self.k):
            w = np.zeros(self.k)
            w[i] = 1.0 if np.isinf(s) else self.masses[i] ** (-1.0 / s)
            gens.append(self.weight_form(w, label=f"point{i}"))
        return FormFamily(gens, balanced=False, label=label or f"points-p{p:g}")


def _weight_norm(w, p: float, masses) -> float:
    s = conjugate_index(p)
    w = np.asarray(w, dtype=float)
    if np.isinf(s):
        return float(np.abs(w).max(initial=0.0))
    return float(np.sum(np.abs(w) ** s * masses) ** (1.0 / s))


def _lp_norm(values, p: float, masses) -> float:
    v = np.abs(np.asarray(values, dtype=complex))
    p = float(p)
    conjugate_index(p)  # validates the exponent range
    return float(np.sum(v ** p * masses) ** (1.0 / p))


def holder_sup(values, p: float, masses) -> dict:
    """Closed-form supremum of phi_w(f, f) over the admissible weight ball.

    Returns the supremum (the squared p-norm), the seminorm (its square
    root), the extremal weight, and the value the extremal weight actually
    attains as a consistency field.  A supremum that overflows or
    underflows the float range raises ``OutOfFloatRange``.
    """
    m = _check_masses(masses)
    s = conjugate_index(p)
    v = np.abs(np.asarray(values, dtype=complex))
    if v.shape != m.shape:
        raise BadMeasure(f"expected {m.size} point values, got shape {v.shape}")
    vmax = float(v.max(initial=0.0))
    if vmax == 0.0:
        raise ZeroFunction("the extremal weight is undefined for the zero function")

    # the norm scales with f and the extremal weight does not depend on its
    # scale, so both come from u = f / max|f|: max|u| is exactly 1, so the
    # powers of u neither overflow nor, at the largest point, underflow
    u = v / vmax
    with np.errstate(over="ignore"):
        unit_norm = _lp_norm(u, p, m)
        norm_p = np.float64(vmax) * unit_norm  # a numpy float, so its square may be inf
        sup_val = float(norm_p ** 2)
    if not 0.0 < sup_val < np.inf:
        raise OutOfFloatRange(f"the squared {p:g}-norm of f is outside the float range "
                              f"(norm {norm_p:.3e})")
    if np.isinf(s):
        w_star = np.ones(m.size)
    else:
        w_star = u ** (p - 2.0) / unit_norm ** (p - 2.0)
    attained = float(np.sum(u ** 2 * w_star * m)) * vmax * vmax
    return {
        "p": float(p),
        "conjugate_index": s,
        "sup": sup_val,
        "seminorm": float(norm_p),
        "extremal_weight": w_star,
        "attained": attained,
        "weight_ball_norm": _weight_norm(w_star, p, m),
    }


def weight_ascent_oracle(values, p: float, masses) -> dict:
    """Feasible-ascent estimate of the weight-ball supremum.

    Every iterate stays on the admissible sphere, so the best value seen
    is a genuine lower bound for the supremum.  At p = 2 the ball is
    0 <= w <= 1 and g >= 0, so w = 1 attains it.  Otherwise the ascent
    cycles over coordinate pairs and solves each two-coordinate slice of
    the sphere exactly by golden-section search, for at most 80 sweeps;
    the slice problems are concave, the sphere has no flat spots, and the
    cycle stalls only at the optimum.
    """
    m = _check_masses(masses)
    k = m.size
    s = conjugate_index(p)
    v = np.abs(np.asarray(values, dtype=complex))
    with np.errstate(over="ignore"):
        g = v ** 2 * m
    if not np.all(np.isfinite(g)):
        raise OutOfFloatRange("|f|^2 m overflows the float range")

    def value(w):
        return float(np.sum(g * w))

    if np.isinf(s):
        w = np.ones(k)
        return {"sup_estimate": value(w), "weight": w, "sweeps": 0}

    def normalize(w):
        w = np.clip(w, 0.0, None)
        nn = float(np.sum(w ** s * m) ** (1.0 / s))
        if nn == 0.0:
            w = np.ones(k)
            nn = float(np.sum(w ** s * m) ** (1.0 / s))
        return w / nn

    # the slice searches run on Python floats, which round each operation
    # as float64 does; the order of the operations fixes every bit of the
    # output (tests pin it), so keep t * budget / m_i unfused
    golden = float((np.sqrt(5.0) - 1.0) / 2.0)
    r = 1.0 / s
    gl, ml = g.tolist(), m.tolist()
    w = normalize(np.ones(k))
    best = value(w)
    best_w = w.copy()
    done = 0
    for sweep in range(80):
        before = value(w)
        wl = w.tolist()
        for i in range(k):
            for j in range(i + 1, k):
                # redistribute the i/j share of the constraint along the
                # slice; t is the share that goes to i
                g_i, g_j, m_i, m_j = gl[i], gl[j], ml[i], ml[j]
                budget = wl[i] ** s * m_i + wl[j] ** s * m_j
                if budget <= 0.0:
                    budget = 1e-12
                lo, hi = 0.0, 1.0
                x1 = hi - golden * (hi - lo)
                x2 = lo + golden * (hi - lo)
                f1, f2 = (g_i * (t * budget / m_i) ** r + g_j * ((1.0 - t) * budget / m_j) ** r
                          for t in (x1, x2))
                for _ in range(90):
                    if f1 < f2:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + golden * (hi - lo)
                        f2 = g_i * (x2 * budget / m_i) ** r + g_j * ((1.0 - x2) * budget / m_j) ** r
                    else:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - golden * (hi - lo)
                        f1 = g_i * (x1 * budget / m_i) ** r + g_j * ((1.0 - x1) * budget / m_j) ** r
                t = x1 if f1 >= f2 else x2
                wl[i], wl[j] = (t * budget / m_i) ** r, ((1.0 - t) * budget / m_j) ** r
        w = normalize(np.array(wl))
        done = sweep + 1
        if value(w) > best:
            best, best_w = value(w), w.copy()
        if abs(value(w) - before) <= 1e-14 * max(best, 1.0):
            break
    return {"sup_estimate": best, "weight": best_w, "sweeps": done}


def lp_bounded_norm(values, p: float, masses,
                    tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Norm of multiplication by f: the sup of |f|, cross-checked generically.

    The analytic value is max_i |f_i|.  The generic route runs the
    characterization pipeline against the family of point weights, whose
    joint quotients see every coordinate.
    """
    from .bounded import m_bounded_norm

    model = DiscreteLpAlgebra.build(masses)
    v = np.asarray(values, dtype=complex)
    analytic = float(np.abs(v).max(initial=0.0))
    fam = model.point_family(p)
    rep = m_bounded_norm(model.element(v), fam, model.inst, tol)
    return {
        "analytic": analytic,
        "generic": rep.value,
        "routes": rep.routes,
        "agrees": abs(analytic - rep.value) <= tol.cross_check * max(analytic, 1.0),
    }


def ball_lower_seminorm_nonneg(values, p: float, masses) -> float:
    """sup over the weight ball of phi_w(f, e) for entrywise nonnegative f.

    Equals the L^(p/2)(m) norm of f; complex phases break the identity, so
    callers must keep probes nonnegative.
    """
    m = _check_masses(masses)
    v = np.asarray(values, dtype=float)
    if np.any(v < 0.0):
        raise BadMeasure("the closed form holds for nonnegative point values only")
    q = p / 2.0
    if q == 1.0:
        return float(np.sum(v * m))
    return float(np.sum(v ** q * m) ** (1.0 / q))
