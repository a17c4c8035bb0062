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
undershoot it: it solves two-coordinate slices of the weight sphere
exactly, one pair at a time, and never forms the extremal weight.
"""

from __future__ import annotations

import math
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
    cycles over coordinate pairs, for at most 80 sweeps, and solves each
    two-coordinate slice of the sphere exactly.  With r = 1/s and t the
    share of the pair's budget that goes to i, the slice value is
    A t^r + C (1 - t)^r, concave in t and largest at Hoelder's equality
    case t = 1 / (1 + rho), rho = (g_j / g_i)^(p/2) (m_i / m_j)^((p-2)/2).
    A step reads its own pair only, never the global extremal weight, so
    the oracle reaches the closed form by an independent route; the cycle
    stalls only at the optimum.
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
        nn = float(np.sum(w ** s * m) ** (1.0 / s))
        if nn == 0.0:
            w = np.ones(k)
            nn = float(np.sum(w ** s * m) ** (1.0 / s))
        return w / nn

    # the slice maximiser depends on the pair alone, so each pair's shares
    # are fixed once.  log rho = c_j - c_i, with c = -inf at g = 0: the step
    # then gives the pair's budget to the other point, or (both zero) skips
    # the pair; the logistic form of the shares cannot overflow for any p
    r = 1.0 / s
    with np.errstate(divide="ignore", over="ignore"):
        c = (0.5 * p * np.log(g) - 0.5 * (p - 2.0) * np.log(m)).tolist()
    ml = m.tolist()
    steps = []
    for i in range(k):
        for j in range(i + 1, k):
            log_rho = c[j] - c[i]
            if log_rho == log_rho:
                q = math.exp(-abs(log_rho))
                big, small = 1.0 / (1.0 + q), q / (1.0 + q)
                t, u = (small, big) if log_rho > 0.0 else (big, small)
                steps.append((i, j, t / ml[i], u / ml[j]))
    best_w = w = normalize(np.ones(k))
    best = now = value(w)
    for sweep in range(80):
        before = now
        wl = w.tolist()
        for i, j, a, b in steps:
            budget = wl[i] ** s * ml[i] + wl[j] ** s * ml[j]
            wl[i], wl[j] = (a * budget) ** r, (b * budget) ** r
        w = normalize(np.array(wl))
        now = value(w)
        if now > best:
            best, best_w = now, w
        if abs(now - before) <= 1e-14 * best:
            break
    return {"sup_estimate": best, "weight": best_w, "sweeps": sweep + 1}


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
        "agrees": abs(analytic - rep.value) <= tol.cross_check * analytic,
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
