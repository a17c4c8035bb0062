"""Order cone, bounded-element norms, weak products, degeneracy space."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (AmbiguousProduct, CharacterizationMismatch,
                      FamilyNotBalanced, GnsRep, NotSufficient,
                      NotWellDefined, build_gns, check_condition_product,
                      cone_intersection_null, cone_membership,
                      cone_witness_element, extract_bounded_algebra,
                      load_bundle, m_bounded_norm, radical,
                      weak_product)


@pytest.fixture(scope="module")
def diag():
    return load_bundle("m2_diag")


@pytest.fixture(scope="module")
def m2(diag):
    return diag["instance"]


@pytest.fixture(scope="module")
def good(diag):
    return diag["families"]["good"]


@pytest.fixture(scope="module")
def bad(diag):
    return diag["families"]["bad"]


def _rand_elem(alg, seed):
    rng = np.random.default_rng(seed)
    return alg.element(rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim))


# -- norms -----------------------------------------------------------------

def test_routes_agree_for_hermitian(m2, good):
    a = m2.basis_element(3)  # the diagonal unit at the second slot
    rep = m_bounded_norm(a, good, m2)
    assert rep.hermitian
    assert abs(rep.value - 1.0) < 1e-9
    assert abs(rep.routes["gns"] - rep.value) < 1e-8
    assert abs(rep.routes["quadratic"] - rep.value) < 1e-8
    assert all(c.passed for c in rep.checks)


def test_shift_norm_counterexample(m2, good):
    # the one-sided shift: norm one but numerical radius one half, so the
    # quadratic route, which only equals the norm on Hermitian elements,
    # is left out here
    a = m2.basis_element(1)
    rep = m_bounded_norm(a, good, m2)
    assert not rep.hermitian
    assert "quadratic" not in rep.routes
    assert abs(rep.value - 1.0) < 1e-9
    assert all(c.passed for c in rep.checks)


def test_nan_route_raises(m2, good, monkeypatch):
    # a NaN fails every comparison, so the cross-check alone would pass it
    monkeypatch.setattr(GnsRep, "rep_norm", lambda self, a: float("nan"))
    with pytest.raises(CharacterizationMismatch):
        m_bounded_norm(m2.basis_element(1), good, m2)


def test_norm_homogeneity_and_triangle(m2, good):
    a, b = _rand_elem(m2, 1), _rand_elem(m2, 2)
    na = m_bounded_norm(a, good, m2).value
    nb = m_bounded_norm(b, good, m2).value
    assert abs(m_bounded_norm(a * (2.0 - 1.0j), good, m2).value
               - abs(2.0 - 1.0j) * na) < 1e-8 * max(na, 1.0)
    nsum = m_bounded_norm(a + b, good, m2).value
    assert nsum <= na + nb + 1e-8


def test_unit_has_norm_one(m2, good):
    assert abs(m_bounded_norm(m2.unit, good, m2).value - 1.0) < 1e-9


def test_norm_requires_sufficiency(m2, bad):
    with pytest.raises(NotSufficient):
        m_bounded_norm(m2.unit, bad, m2)


# -- cone ------------------------------------------------------------------

def test_squares_are_members(m2, good):
    for i in range(m2.dim):
        x = m2.basis_element(i)
        sq = m2.element_from_matrix(x.matrix.conj().T @ x.matrix)
        rep = cone_membership(sq, good, m2)
        assert rep.member, (i, rep.per_generator)


def test_negative_diagonal_is_not_member(m2, good):
    rep = cone_membership(-m2.basis_element(3), good, m2)
    assert not rep.member
    assert rep.witness_coeffs is not None
    assert rep.witness_value.real < 0


def test_flip_matrix_witness(m2, good):
    # the symmetric flip pairs positively against some directions and
    # negatively against others; the witness pins the negative one
    flip = m2.basis_element(1) + m2.basis_element(2)
    rep = cone_membership(flip, good, m2)
    assert not rep.member
    assert rep.witness_value.real == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-9)
    w = cone_witness_element(rep, m2)
    # recompute the pairing the witness certifies, straight from the form
    phi = good.seeds[0]
    wx = m2.element_from_matrix(flip.matrix @ w.matrix)
    val = phi.eval(wx, w)
    assert val.real == pytest.approx(rep.witness_value.real, abs=1e-9)
    assert abs(val.imag) < 1e-9


def test_cone_requires_balanced(m2, bad):
    with pytest.raises(FamilyNotBalanced):
        cone_membership(m2.unit, bad, m2)


def test_wedge_intersection_matches_sufficiency(m2, good):
    out = cone_intersection_null(good, m2)
    assert out["dim"] == 0
    assert out["matches_sufficiency"]
    flip = load_bundle("m2_flip")
    out2 = cone_intersection_null(flip["families"]["amb"], flip["instance"])
    assert out2["dim"] == 1
    assert out2["matches_sufficiency"]


# -- weak products ---------------------------------------------------------

def test_shift_product_closes(m2, good):
    prod, rep = weak_product(m2.basis_element(1), m2.basis_element(2), good, m2)
    e11 = m2.element_from_matrix(np.diag([1.0, 0.0]))
    assert np.allclose(prod.coeffs, e11.coeffs, atol=1e-9)
    assert rep.residual <= 1e-9 * max(rep.rhs_norm, 1.0)


def test_product_against_unit_is_identity(m2, good):
    a = _rand_elem(m2, 9)
    left, _ = weak_product(a, m2.unit, good, m2)
    right, _ = weak_product(m2.unit, a, good, m2)
    assert np.allclose(left.coeffs, a.coeffs, atol=1e-9)
    assert np.allclose(right.coeffs, a.coeffs, atol=1e-9)


def test_adjoint_law(m2, good):
    a, b = _rand_elem(m2, 11), _rand_elem(m2, 12)
    ab, _ = weak_product(a, b, good, m2)
    ba_star, _ = weak_product(b.star(), a.star(), good, m2)
    assert np.allclose(ab.star().coeffs, ba_star.coeffs, atol=1e-8)


def test_ambiguous_product_detected():
    flip = load_bundle("m2_flip")
    inst, fam = flip["instance"], flip["families"]["amb"]
    with pytest.raises(AmbiguousProduct) as exc:
        weak_product(inst.basis_element(1), inst.basis_element(1), fam, inst)
    null = np.asarray(exc.value.null_coeffs)
    # the undetermined direction mixes the unit with the flip evenly
    assert abs(abs(null[0]) - abs(null[1])) < 1e-9


def test_escaping_product_detected():
    m3 = load_bundle("m3_pattern")
    inst, fam = m3["instance"], m3["families"]["good"]
    up01 = inst.basis_element(3)   # first superdiagonal unit
    up12 = inst.basis_element(5)   # second superdiagonal unit
    with pytest.raises(NotWellDefined) as exc:
        weak_product(up01, up12, fam, inst)
    assert exc.value.residual > 1e-3 * max(exc.value.rhs_norm, 1e-300)


def test_condition_product_verdicts(m2, good):
    out = check_condition_product(good, m2)
    assert out["holds"]
    assert out["worst_relative_residual"] <= 1e-9
    m3 = load_bundle("m3_pattern")
    out2 = check_condition_product(m3["families"]["good"], m3["instance"])
    assert not out2["holds"]
    assert out2["n_failures"] >= 1


def test_condition_product_matches_per_pair_reference():
    # one lstsq per pair, as a reference for the single multi-column solve
    m3 = load_bundle("m3_pattern")
    inst, fam = m3["instance"], m3["families"]["good"]
    reps = [build_gns(phi, inst) for phi in fam.dense_forms(inst)]
    probes = [inst.basis_element(i) for i in range(inst.dim)]
    M = np.column_stack([np.concatenate([r.rep_matrix(e).reshape(-1) for r in reps])
                         for e in probes])
    rel = []
    for a in probes:
        for b in probes:
            t = np.concatenate([(r.rep_matrix(a) @ r.rep_matrix(b)).reshape(-1)
                                for r in reps])
            c = np.linalg.lstsq(M, t, rcond=None)[0]
            rel.append(np.linalg.norm(M @ c - t) / max(np.linalg.norm(t), 1.0))
    out = check_condition_product(fam, inst)
    assert out["worst_relative_residual"] == pytest.approx(max(rel), rel=1e-9)
    assert out["n_failures"] == sum(r > 1e-8 for r in rel)


def test_weak_product_matches_row_by_row_reference():
    # the system built one row at a time, as a reference for the batched build
    rng = np.random.default_rng(5)
    for inst, fam in make_corpus(count=4, seed=11):
        a = inst.element(rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim))
        full = np.zeros(inst.dim, dtype=complex)
        full[list(inst.a0_indices)] = rng.normal(size=inst.a0_dim)
        b = inst.element(full)
        R = [inst.right_mult_matrix(inst.basis[j])[0] for j in inst.a0_indices]
        rows, rhs = [], []
        for phi in fam.forms(inst):
            G = phi.gram(inst)
            gn = np.linalg.norm(G, 2)
            for Rj in R:
                for k, Rk in zip(inst.a0_indices, R):
                    rows.append((G @ Rj)[k, :] / gn)
                    rhs.append((Rk @ a.star().coeffs).conj() @ G @ (Rj @ b.coeffs) / gn)
        ref = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
        c, _ = weak_product(a, b, fam, inst)
        assert np.allclose(c.coeffs, ref, rtol=0.0, atol=1e-10 * np.linalg.norm(ref))


# -- radical ---------------------------------------------------------------

def test_radical_dimensions(m2, good, bad):
    assert radical(good, m2).dim == 0
    assert radical(bad, m2).dim == 2
    flip = load_bundle("m2_flip")
    assert radical(flip["families"]["amb"], flip["instance"]).dim == 1


def test_radical_routes_agree(m2, good, bad):
    for fam in (good, bad):
        rep = radical(fam, m2)
        assert all(c.passed for c in rep.checks), [c.name for c in rep.checks]


def test_radical_vectors_are_null(m2, bad):
    rep = radical(bad, m2)
    phi = bad.seeds[0]
    for c in rep.basis_coeffs:
        v = m2.element(c)
        assert abs(phi.eval(v, v)) < 1e-12


# -- normed algebra laws ---------------------------------------------------

def test_bounded_algebra_laws(m2, good):
    probes = [m2.unit, m2.basis_element(1), m2.basis_element(2),
              m2.basis_element(3), _rand_elem(m2, 31) * 0.5]
    out = extract_bounded_algebra(good, m2, probes)
    for c in out["checks"]:
        assert c["passed"], c
