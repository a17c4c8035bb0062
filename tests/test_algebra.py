"""Structural layer: instances, elements, validation, module products."""

import numpy as np
import pytest

from qstarlab import (DEFAULT_TOL, ClosureViolation, DependentBasis,
                      MissingUnit, NotInA0, ParseError, QuasiAlgebraInstance,
                      ensure_valid, hermitian_parts, load_bundle,
                      module_product, validate_structure)
from qstarlab.algebra import blocks, spectral_norm
from qstarlab.bundled import bundle_names
from qstarlab.report import dumps

from corpus import make_corpus


def _eij(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


@pytest.fixture(scope="module")
def m2():
    return load_bundle("m2_diag")["instance"]


@pytest.fixture(scope="module")
def m3():
    return load_bundle("m3_pattern")["instance"]


def test_bundles_validate_clean(m2, m3):
    for inst in (m2, m3):
        rep = validate_structure(inst)
        assert rep.valid, [c.name for c in rep.checks if not c.passed]


def test_validation_reports_every_axiom(m2):
    names = {c.name for c in validate_structure(m2).checks}
    assert names == {
        "basis-independence", "unit-element", "subalgebra-product-closure",
        "subalgebra-involution-closure", "involution-closure",
        "bimodule-closure", "associativity", "involution-antihomomorphism",
    }


def test_dependent_basis_rejected():
    basis = [np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)]
    inst = QuasiAlgebraInstance(basis, a0_indices=[0], unit_index=0)
    with pytest.raises(DependentBasis):
        ensure_valid(inst)


def test_missing_unit_rejected():
    # basis spans the diagonal but no member equals the identity
    basis = [_eij(2, 0, 0), _eij(2, 1, 1)]
    inst = QuasiAlgebraInstance(basis, a0_indices=[0, 1], unit_index=0)
    with pytest.raises(MissingUnit):
        ensure_valid(inst)


def test_subalgebra_not_closed_under_products():
    # a0 spanned by {I, E12 + E21}: the square of the off-diagonal part
    # is the identity, fine, but add E12 alone and closure breaks
    basis = [np.eye(2, dtype=complex), _eij(2, 0, 1)]
    inst = QuasiAlgebraInstance(basis, a0_indices=[0, 1], unit_index=0)
    rep = validate_structure(inst)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "subalgebra-involution-closure" in failed
    with pytest.raises(ClosureViolation):
        ensure_valid(inst)


def _closure_reference(alg):
    """The four span-closure checks one product at a time: name ->
    (max relative residual, indices of the worst product or None)."""
    a0 = [alg.basis[i] for i in alg.a0_indices]
    sub = lambda m: alg.a0_coeffs_of(m)[1]
    full = lambda m: alg.coeffs_of(m)[1]
    fro = np.linalg.norm

    def worst(items):
        best = (0.0, None)
        for res, scale, where in items:
            r = res / max(scale, 1e-300)
            if r > best[0]:
                best = (r, where)
        return best

    ix = alg.a0_indices
    return {
        "subalgebra-product-closure": worst(
            (sub(x @ y), fro(x) * fro(y), (ix[j], ix[k]))
            for j, x in enumerate(a0) for k, y in enumerate(a0)),
        "subalgebra-involution-closure": worst(
            (sub(x.conj().T), fro(x), ix[j]) for j, x in enumerate(a0)),
        "involution-closure": worst(
            (full(a.conj().T), fro(a), i) for i, a in enumerate(alg.basis)),
        "bimodule-closure": worst(
            (full(prod), fro(x) * fro(a), (side, ix[j], i))
            for j, x in enumerate(a0) for i, a in enumerate(alg.basis)
            for side, prod in (("left", x @ a), ("right", a @ x))),
    }


def _bimodule_breaker():
    # A0 = span{I, E00, E11} and A = A0 + span{a}, a = E01 + 2 E12 + 3 E20:
    # a.E00 = 3 E20 leaves A, and so does every other proper product.  The
    # weights keep the worst product unique, and the element outside A0
    # comes first so that basis and subalgebra positions differ.
    a = _eij(3, 0, 1) + 2 * _eij(3, 1, 2) + 3 * _eij(3, 2, 0)
    basis = [a, np.eye(3, dtype=complex), _eij(3, 0, 0), _eij(3, 1, 1)]
    return QuasiAlgebraInstance(basis, a0_indices=[1, 2, 3], unit_index=1)


def _closure_cases():
    cases = [load_bundle(name)["instance"]
             for name in ("m2_diag", "m2_full", "m3_pattern", "m2_flip", "lp_k2_p4")]
    # C inside M_1: every residual is exactly zero and no worst item exists
    cases.append(QuasiAlgebraInstance([np.eye(1)], a0_indices=[0], unit_index=0))
    for n, count in ((4, 4), (6, 3), (8, 2)):
        cases += [inst for inst, _ in make_corpus(count=count, seed=0x5A + n, n_min=n, n_max=n)]
    # A0 = span{I, E01} is not closed under the involution (as in
    # test_subalgebra_not_closed_under_products), here inside A = M_2 too
    cases.append(QuasiAlgebraInstance([np.eye(2, dtype=complex), _eij(2, 0, 1)],
                                      a0_indices=[0, 1], unit_index=0))
    cases.append(QuasiAlgebraInstance(
        [_eij(2, 1, 0), _eij(2, 0, 0), np.eye(2, dtype=complex), _eij(2, 0, 1)],
        a0_indices=[2, 3], unit_index=2))
    # A0 = span{I, h}, h = 3 (E01 + E10) in M_3: h.h = 9 (E00 + E11) is
    # in A but not in A0
    h = 3 * (_eij(3, 0, 1) + _eij(3, 1, 0))
    cases.append(QuasiAlgebraInstance([_eij(3, 0, 0) + _eij(3, 1, 1), np.eye(3, dtype=complex), h],
                                      a0_indices=[1, 2], unit_index=1))
    cases.append(_bimodule_breaker())
    return cases


def test_closure_checks_match_per_item_reference():
    tol = DEFAULT_TOL.structure
    failures = set()
    for inst in _closure_cases():
        checks = {c.name: c for c in validate_structure(inst).checks}
        for name, (ref, where) in _closure_reference(inst).items():
            got = checks[name]
            assert got.passed == (ref <= tol), (inst.label, name)
            res = got.data["max_residual"]
            at = next(v for k, v in got.data.items() if k.startswith("worst_"))
            assert (at is None) == (res == 0.0) == (where is None), (inst.label, name)
            if ref > tol:
                failures.add(name)
                assert at == where, (inst.label, name)
                assert abs(res - ref) <= 1e-12 * ref, (inst.label, name)
            else:
                # at noise level near-ties may pick a different worst item
                assert res <= 1e-12 and ref <= 1e-12, (inst.label, name)
    assert failures == {"subalgebra-product-closure", "subalgebra-involution-closure",
                        "involution-closure", "bimodule-closure"}


def test_involution_closure_reads_the_instance_star_residuals():
    # reference: every adjoint a_i^H projected onto the span on its own stack
    for inst in _closure_cases():
        B = np.stack(inst.basis)
        P = B.conj().swapaxes(-1, -2).reshape(inst.dim, -1).T
        res = np.linalg.norm(inst._bmat @ (inst._pinv @ P) - P, axis=0)
        assert np.array_equal(inst.star_matrix()[1], res), inst.label
        rel = res / np.maximum(np.linalg.norm(B, axis=(1, 2)), 1e-300)
        worst = float(rel.max(initial=0.0))
        check = next(c for c in validate_structure(inst).checks if c.name == "involution-closure")
        assert check.data == {"max_residual": worst,
                              "worst_index": int(np.argmax(rel)) if worst > 0 else None}
        assert check.passed == (worst <= DEFAULT_TOL.structure), inst.label


def test_element_star_is_the_instance_adjoint_map():
    # reference: the adjoint as the matrix-vector product S conj(c)
    insts = [load_bundle(name)["instance"] for name in bundle_names()]
    insts += [inst for inst, _ in make_corpus(count=6, seed=0x57A, n_min=3, n_max=6)]
    rng = np.random.default_rng(20)
    for inst in insts:
        S = inst.star_matrix()[0]
        C = rng.standard_normal((20, inst.dim)) + 1j * rng.standard_normal((20, inst.dim))
        for c in C:
            star = inst.element(c).star().coeffs
            assert np.array_equal(star, S @ c.conj()), inst.label
            assert np.array_equal(star, inst.adjoints(c[None])[0]), inst.label
        # a stack takes one GEMM, whose blocking may round a row differently;
        # a row with a non-finite part maps to a NaN row
        ref = np.array([S @ c.conj() for c in C])
        C[0, -1] = np.inf
        Y = inst.adjoints(C)
        assert np.isnan(Y[0]).all(), inst.label
        assert np.abs(Y[1:] - ref[1:]).max() <= 1e-14 * np.abs(ref).max(), inst.label


def test_bimodule_violation_raises_with_its_triple():
    # A0 = span{I, E00, E11}, A = A0 + span{E01 + E12, E10 + E21}: closed
    # under the involution, but E00 (E01 + E12) = E01 leaves A
    basis = [np.eye(3, dtype=complex), _eij(3, 0, 0), _eij(3, 1, 1),
             _eij(3, 0, 1) + _eij(3, 1, 2), _eij(3, 1, 0) + _eij(3, 2, 1)]
    inst = QuasiAlgebraInstance(basis, a0_indices=[0, 1, 2], unit_index=0)
    failed = [c for c in validate_structure(inst).checks if not c.passed]
    assert [c.name for c in failed] == ["bimodule-closure"]
    with pytest.raises(ClosureViolation) as info:
        ensure_valid(inst)
    assert info.value.context == "bimodule-closure"
    assert info.value.indices == failed[0].data["worst_triple"]
    side, j, i = info.value.indices
    assert side in ("left", "right") and j in (1, 2) and i in (3, 4)


def test_report_ignores_global_rng_and_n8_corpus_validates():
    for inst, _ in make_corpus(count=4, seed=0x88, n_min=8, n_max=8):
        reports = []
        for seed in (1, 2):
            np.random.seed(seed)
            reports.append(dumps(validate_structure(inst).as_dict()))
        assert reports[0] == reports[1]
        assert validate_structure(inst).valid, inst.label


def test_element_round_trip_and_star(m2):
    rng = np.random.default_rng(7)
    c = rng.normal(size=m2.dim) + 1j * rng.normal(size=m2.dim)
    a = m2.element(c)
    back = m2.element_from_matrix(a.matrix)
    assert np.allclose(back.coeffs, c)
    assert np.allclose(a.star().matrix, a.matrix.conj().T)
    assert np.allclose(a.star().star().coeffs, a.coeffs)


def test_element_outside_span_rejected(m3):
    # E13 is not in the m3 pattern
    with pytest.raises(ClosureViolation):
        m3.element_from_matrix(_eij(3, 0, 2))


def test_hermitian_parts_reconstruct(m2):
    rng = np.random.default_rng(11)
    a = m2.element(rng.normal(size=m2.dim) + 1j * rng.normal(size=m2.dim))
    re, im = hermitian_parts(a)
    assert re.is_hermitian() and im.is_hermitian()
    recon = re + im * 1j
    assert np.allclose(recon.coeffs, a.coeffs)


def test_is_hermitian_holds_at_every_element_scale(m2):
    # decided on each matrix scaled to unit largest part: E01 is never
    # Hermitian and E11 always is, from 2^-1000 to 2^1000, with no overflow
    # warning (the suite turns one into an error)
    e01, e11 = m2.basis_element(1), m2.basis_element(3)
    scales = [2.0 ** k for k in range(-1000, 1001)]
    assert not any((e01 * c).is_hermitian() for c in scales)
    assert all((e11 * c).is_hermitian() for c in scales)


def test_module_product_matches_matrix_product(m2):
    x = m2.a0_basis_element(1)
    a = m2.basis_element(1)
    left = module_product(x, a, side="left")
    right = module_product(x, a, side="right")
    assert np.allclose(left.matrix, x.matrix @ a.matrix)
    assert np.allclose(right.matrix, a.matrix @ x.matrix)


def test_module_product_requires_subalgebra_factor(m2):
    a = m2.basis_element(1)  # strictly outside a0
    with pytest.raises(NotInA0):
        module_product(a, m2.unit, side="left")


def test_json_round_trip(m2):
    payload = m2.as_jsonable()
    rebuilt = QuasiAlgebraInstance.from_json(payload)
    assert rebuilt.dim == m2.dim
    assert rebuilt.a0_indices == m2.a0_indices
    for i in range(m2.dim):
        assert np.allclose(rebuilt.basis[i], m2.basis[i])


def test_from_json_rejects_malformed():
    with pytest.raises(ParseError):
        QuasiAlgebraInstance.from_json({"n": 2})
    with pytest.raises(ParseError):
        QuasiAlgebraInstance.from_json(
            {"n": 2, "basis": [[[1, 0], [0, 1]]], "a0_indices": [0],
             "unit_index": 5})


def test_in_a0_classification(m2):
    assert m2.unit.in_a0()[0]
    assert not m2.basis_element(1).in_a0()[0]


def test_right_mult_table_stacks_the_one_element_matrices():
    # the table is one stacked product and one projection; each slice must
    # be the matrix and the residual that right_mult_matrix gives alone
    insts = [load_bundle(name)["instance"] for name in ("m2_diag", "m3_pattern", "m2_flip")]
    insts += [inst for inst, _ in make_corpus(count=4, seed=3)]
    for inst in insts:
        R0, rel = inst.right_mult_table
        assert R0.shape == (inst.a0_dim, inst.dim, inst.dim) and not R0.flags.writeable
        for j, i in enumerate(inst.a0_indices):
            R, res = inst.right_mult_matrix(inst.basis[i])
            assert np.allclose(R0[j], R, rtol=1e-13, atol=1e-15)
            assert rel[j] == pytest.approx(res / np.linalg.norm(inst.basis[i]),
                                           rel=1e-12, abs=1e-30)


def test_mult_matrices_represent_products(m2):
    x = m2.a0_basis_element(1)
    R, _ = m2.right_mult_matrix(x.matrix)
    L, _ = m2.left_mult_matrix(x.matrix)
    rng = np.random.default_rng(3)
    c = rng.normal(size=m2.dim)
    a = m2.element(c)
    assert np.allclose(m2.element(R @ c).matrix, a.matrix @ x.matrix)
    assert np.allclose(m2.element(L @ c).matrix, x.matrix @ a.matrix)


def test_pseudo_inverses_are_numpys_bit_for_bit():
    # the instance builds both pseudo-inverses by numpy's own formula, on
    # the one SVD whose singular values structure validation reports
    insts = [load_bundle(name)["instance"] for name in bundle_names()]
    for seed in (1, 2, 3):
        insts += [inst for inst, _ in make_corpus(seed=seed)]
    for inst in insts:
        assert np.array_equal(inst._pinv, np.linalg.pinv(inst._bmat)), inst.label
        assert np.array_equal(inst._pinv_a0, np.linalg.pinv(inst._bmat_a0)), inst.label
        sv = np.linalg.svd(inst._bmat, compute_uv=False)
        assert np.allclose(inst._singular_values, sv, rtol=1e-13, atol=0.0), inst.label


def test_right_mult_table_is_the_stacked_product_bit_for_bit():
    # the table is formed in blocks of whole x_j; each block's GEMMs must give
    # R0 the bits of the one stacked product, since skipped_products and the
    # closure's zero and direction decisions ride on them
    insts = [load_bundle(name)["instance"] for name in bundle_names()]
    for n, count in ((4, 4), (6, 3), (8, 3)):
        insts += [inst for inst, _ in make_corpus(count=count, seed=0xB10C + n, n_min=n, n_max=n)]
    blocked = 0
    for inst in insts:
        B = np.stack(inst.basis)
        X = B[list(inst.a0_indices)]
        prods = (B[None] @ X[:, None]).reshape(len(X), inst.dim, -1).transpose(0, 2, 1)
        R0, _ = inst.right_mult_table
        assert R0.tobytes() == (inst._pinv @ prods).tobytes(), inst.label
        blocked += len(blocks(len(X), B.nbytes)) > 1
    assert blocked >= 3


def test_spectral_norm_is_numpys_bit_for_bit():
    rng = np.random.default_rng(41)
    for d in (2, 3, 7, 16, 40):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            X = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for M in (X, X + X.conj().T, X.real, X[:, : d // 2 + 1]):
                assert spectral_norm(M) == np.linalg.norm(M, 2), (d, scale)
