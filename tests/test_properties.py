"""Randomized invariants over coefficient space, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, BoundedFormSet, FormFamily, IpsForm, QStarError,
                      check_condition_product, compare_topologies, form_equal, ga_star_check,
                      hermitian_parts, holder_sup, load_bundle, m_bounded_norm,
                      m_bounded_values, p_upper, radical, seminorms, standard_probes, twist,
                      validate_family, weak_product, weak_products, weight_ascent_oracle)
from qstarlab.forms import gram_sections

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


_M3 = load_bundle("m3_pattern")["instance"]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=7),
       st.booleans(), st.integers(min_value=-17, max_value=-6),
       st.integers(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_block_rank_never_exceeds_full_rank(seed, rank, off_block, noise_exp, scale_exp):
    # a random PSD Gram of the given rank (optionally with nothing on the
    # subalgebra block), at any scale, plus PSD noise on the block alone:
    # the block is a principal submatrix, so its rank cannot exceed the Gram's
    rng = np.random.default_rng(seed)
    d, ix = _M3.dim, np.asarray(_M3.a0_indices)
    B = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    if off_block:
        B[ix] = 0.0
    N = rng.normal(size=(ix.size, ix.size)) + 1j * rng.normal(size=(ix.size, ix.size))
    G = B @ B.conj().T
    G[np.ix_(ix, ix)] += 10.0 ** noise_exp * (N @ N.conj().T)
    G *= 10.0 ** scale_exp
    full, sub = gram_sections(G, _M3, DEFAULT_TOL)
    assert sub.w.size <= full.w.size


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=7), st.booleans(),
       st.floats(min_value=-20.0, max_value=2.0), st.integers(min_value=-17, max_value=-4))
@settings(max_examples=100, deadline=None)
def test_twists_left_out_are_zero(seed, d, rank, indefinite, floor_exp, leak_exp):
    # a Hermitian G of the given rank (PSD or indefinite), held as the signed
    # factor of its quotient section, and right factors R_j whose columns lie
    # in ker G, in it up to a small leak, anywhere, or nowhere (R_j = 0), with
    # twists from 1e-150 to 1e150 and factors from 1e-50 to 1e50.  A twist the
    # Frobenius certificate leaves out must be zero to _classify at the same
    # floor as formed from the factor, and as R^H G R up to that product's own
    # rounding, and a kept one must be the matrix _twisted_grams forms, up to
    # the rounding of G's scale
    from qstarlab.forms import (_classify, _factor_twister, _hermitian_part, _twisted_grams,
                                quotient_section)
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    V, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    w = rng.uniform(0.5, 2.0, rank) * (rng.choice([-1.0, 1.0], rank) if indefinite else 1.0)
    G0 = (V[:, :rank] * w) @ V[:, :rank].conj().T
    N = V[:, rank:]
    F = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    R0 = np.stack([N @ N.conj().T @ F[0], N @ N.conj().T @ F[1] + 10.0 ** leak_exp * F[2],
                   F[2], np.zeros((d, d))])
    empty = np.empty((0, d, d), dtype=complex)
    for twist_exp in (-150, -50, 0, 50, 150):
        for r_exp in (-50, 0, 50):
            G = G0 * 10.0 ** (twist_exp - 2 * r_exp)
            G = (G + G.conj().T) / 2.0
            R = R0 * 10.0 ** r_exp
            floor = 10.0 ** (twist_exp + floor_exp)
            fac = quotient_section(G, DEFAULT_TOL.rank).factor
            twisted = list(_factor_twister(R)(fac, floor))
            keep = np.array([j for j, _, _ in twisted], dtype=int)
            kept = np.array([Gt for _, _, Gt in twisted]).reshape(-1, d, d)
            full = _twisted_grams(G, R)
            FR = fac.F @ R
            formed = _hermitian_part(FR.conj().transpose(0, 2, 1) @ (fac.signs[:, None] * FR))
            scale = np.linalg.norm(G, 2) * np.linalg.norm(R, 2, axis=(1, 2)) ** 2
            assert np.all(np.abs(kept - full[keep]).max(axis=(1, 2), initial=0.0)
                          <= 1e-13 * scale[keep])
            # R^H G R is formed here with its own rounding, of up to 2 d eps |G|_2 |R|_F^2
            rounding = 2.0 * d * np.finfo(float).eps * np.linalg.norm(G, 2) * \
                np.linalg.norm(R, axis=(1, 2)) ** 2
            for j in set(range(len(R))) - set(keep.tolist()):
                assert _classify(formed[j], empty, floor, DEFAULT_TOL) == "zero", (j, twist_exp, r_exp)
                assert _classify(full[j], empty, floor + rounding[j], DEFAULT_TOL) == "zero", \
                    (j, twist_exp, r_exp)
            assert 3 not in keep
            if rank < d and floor_exp >= -12.0:
                assert 0 not in keep, (twist_exp, r_exp)


def _scaled(fam, c):
    """The family with every seed payload multiplied by c > 0."""
    return FormFamily([IpsForm(phi.kind, c * phi.payload, phi.label) for phi in fam.seeds],
                      fam.balanced, fam.twist_depth, fam.label)


def _scale_answers(inst, fam):
    """``(answers, norms, upper)``: the discrete answers that no positive form
    scale may move, the M-bounded norms of the basis (None for a family
    that does not separate points) and its upper seminorms."""
    rep = validate_family(fam, inst)
    I = np.eye(inst.dim)
    left, right = np.divmod(np.arange(inst.dim ** 2), inst.dim)
    suff = fam.sufficiency(inst)

    def outcome(call):
        try:
            return call()
        except QStarError as exc:
            return type(exc).__name__
    answers = {"accepted": rep.accepted, "labels": [m.label for m in fam.forms(inst)],
               "checks": [(c.name, c.passed) for c in rep.checks], "dim_null": suff.dim_null,
               "radical_dim": radical(fam, inst).dim,
               "condition_product": outcome(lambda: check_condition_product(fam, inst)["holds"]),
               "gastar": ga_star_check(fam, inst).verdict,
               "weak_products": outcome(lambda: [isinstance(out, tuple) for out in
                                                 weak_products(I[left], I[right], fam, inst)])}
    F = BoundedFormSet.from_family(fam, inst)
    answers["relation"] = compare_topologies(F, "upper", F, "star",
                                             standard_probes(inst, 16))["relation"]
    norms = m_bounded_values(I, fam, inst)[0] if suff.sufficient else None
    return answers, norms, seminorms(F, inst, I, "upper")


def test_form_scale_moves_no_answer():
    # phi -> 2^k phi: the closure's zero floors follow the largest seed and the
    # topology comparison's floor follows the seminorms it compares, so every
    # discrete answer stays; norms stay and seminorms scale by 2^(k/2)
    cases = [(load_bundle(b)["instance"], load_bundle(b)["families"][f])
             for b, f in (("m2_diag", "good"), ("m2_diag", "bad"), ("m2_full", "trace"),
                          ("m3_pattern", "good"))]
    cases += make_corpus(count=3, seed=0x5CA1E, n_min=3, n_max=5)
    for inst, fam in cases:
        answers, norms, upper = _scale_answers(inst, fam)
        assert answers["labels"]
        for k in (-400, -200, -60, -50, -1, 1, 60, 400):
            answers_k, norms_k, upper_k = _scale_answers(inst, _scaled(fam, 2.0 ** k))
            assert answers_k == answers, (fam.label, k)
            if norms is not None:
                np.testing.assert_allclose(norms_k, norms, rtol=1e-12, atol=0)
            np.testing.assert_allclose(upper_k, upper * 2.0 ** (k / 2), rtol=1e-12, atol=0)
