"""Randomized invariants over coefficient space, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qstarlab import (form_equal, hermitian_parts, holder_sup, load_bundle,
                      m_bounded_norm, p_upper, twist, weak_product,
                      weight_ascent_oracle, BoundedFormSet)

_diag = load_bundle("m2_diag")
M2 = _diag["instance"]
GOOD = _diag["families"]["good"]
PHI = GOOD.seeds[0]
FSET = BoundedFormSet.from_family(GOOD, M2)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False, width=32)


def coeff_vectors(dim):
    return st.lists(st.tuples(finite, finite), min_size=dim, max_size=dim).map(
        lambda pairs: np.array([complex(re, im) for re, im in pairs]))


@given(coeff_vectors(4), coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(ca, cb):
    a, b = M2.element(ca), M2.element(cb)
    lhs = abs(PHI.eval(a, b)) ** 2
    rhs = PHI.eval(a, a).real * PHI.eval(b, b).real
    assert lhs <= rhs + 1e-7 * max(rhs, 1.0)


@given(coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_hermitian_split(c):
    # the parts are hermitian up to roundoff at the scale of the parent:
    # a part much smaller than the parent inherits absolute noise from it
    a = M2.element(c)
    re, im = hermitian_parts(a)
    scale = max(a.norm_frobenius(), 1.0)
    for part in (re, im):
        m = part.matrix
        assert np.linalg.norm(m - m.conj().T) <= 1e-9 * scale
    assert np.allclose((re + im * 1j).coeffs, a.coeffs, atol=1e-9)


@given(st.tuples(finite, finite), coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_star_is_antilinear(z, c):
    zc = complex(*z)
    a = M2.element(c)
    lhs = (a * zc).star()
    rhs = a.star() * np.conj(zc)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)


@given(st.tuples(finite, finite), st.tuples(finite, finite))
@settings(max_examples=100, deadline=None)
def test_twist_composition(cx, cy):
    # two successive twists compose through the reversed product
    x = M2.unit * complex(*cx) + M2.a0_basis_element(1) * 0.5
    y = M2.unit * 0.25 + M2.a0_basis_element(1) * complex(*cy)
    yx = M2.element_from_matrix(y.matrix @ x.matrix)
    lhs = twist(twist(PHI, x), y)
    rhs = twist(PHI, yx)
    gl, gr = lhs.gram(M2), rhs.gram(M2)
    scale = max(np.linalg.norm(gl, 2), np.linalg.norm(gr, 2), 1.0)
    assert np.linalg.norm(gl - gr, 2) <= 1e-8 * scale


@given(st.tuples(finite, finite), coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_upper_seminorm_homogeneous(z, c):
    zc = complex(*z)
    a = M2.element(c)
    base = p_upper(FSET, a)
    assert p_upper(FSET, a * zc) <= abs(zc) * base + 1e-7 * max(base, 1.0)
    assert p_upper(FSET, a * zc) >= abs(zc) * base - 1e-7 * max(base, 1.0)


@given(st.integers(min_value=-150, max_value=150), coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_norm_homogeneous_across_scales(k, c):
    a = M2.element(c)
    base = m_bounded_norm(a, GOOD, M2)
    scaled = m_bounded_norm(a * 10.0 ** k, GOOD, M2)
    assert abs(scaled.value - 10.0 ** k * base.value) <= 1e-8 * 10.0 ** k * base.value
    assert scaled.hermitian == base.hermitian


@given(coeff_vectors(4), coeff_vectors(4))
@settings(max_examples=200, deadline=None)
def test_upper_seminorm_triangle(ca, cb):
    a, b = M2.element(ca), M2.element(cb)
    assert p_upper(FSET, a + b) <= p_upper(FSET, a) + p_upper(FSET, b) + 1e-8


@given(coeff_vectors(4), coeff_vectors(4), st.tuples(finite, finite))
@settings(max_examples=60, deadline=None)
def test_weak_product_is_bilinear(ca, cb, z):
    zc = complex(*z)
    a, b = M2.element(ca), M2.element(cb)
    c = M2.basis_element(2)
    lhs, _ = weak_product(a + b * zc, c, GOOD, M2)
    pa, _ = weak_product(a, c, GOOD, M2)
    pb, _ = weak_product(b, c, GOOD, M2)
    scale = max(np.abs(lhs.coeffs).max(), 1.0)
    assert np.allclose(lhs.coeffs, pa.coeffs + zc * pb.coeffs,
                       atol=1e-8 * scale)


@given(
    st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
             min_size=2, max_size=5),
    st.floats(min_value=2.0, max_value=6.0, allow_nan=False),
    st.lists(st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
             min_size=5, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_oracle_never_exceeds_closed_form(f, p, masses):
    if max(abs(v) for v in f) < 1e-6:
        return
    m = np.asarray(masses[:len(f)])
    m = m / m.sum()
    out = holder_sup(f, p, m)
    orc = weight_ascent_oracle(f, p, m)
    assert orc["sup_estimate"] <= out["sup"] * (1.0 + 1e-9) + 1e-12


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=8, deadline=None)
def test_closure_reproducible(k):
    # the effective family is memoized; rebuilding from serialized data
    # gives the same Gram matrices in the same order
    from qstarlab import FormFamily
    fam = FormFamily.from_json(GOOD.as_jsonable())
    fresh = fam.forms(M2)
    memo = GOOD.forms(M2)
    assert len(fresh) == len(memo)
    idx = min(k, len(memo) - 1)
    assert form_equal(fresh[idx], memo[idx], M2)
