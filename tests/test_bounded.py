"""Order cone, bounded-element norms, weak products, degeneracy space."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, AmbiguousProduct, CharacterizationMismatch,
                      FamilyNotBalanced, GnsRep, NotSufficient,
                      NotWellDefined, ProductOverflow, check_condition_product,
                      cone_intersection_null, cone_membership,
                      cone_witness_element, extract_bounded_algebra,
                      FormFamily, IpsForm, bundle_names, load_bundle, m_bounded_norm, radical,
                      weak_product, weak_products)
from qstarlab import bounded
from qstarlab.algebra import scaled_rows
from qstarlab.bounded import _norm_routes, _null_basis, m_bounded_values
from qstarlab.forms import _hermitian_part, _right_mults, check_sufficiency
from qstarlab.report import CheckResult, dumps
from qstarlab.topology import ga_star_check


def svd_full(M):
    return np.linalg.svd(M, full_matrices=True)


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


def test_shift_norm_counterexample(m2, good):
    # the one-sided shift: norm one but numerical radius one half, so the
    # quadratic route, which only equals the norm on Hermitian elements,
    # is left out here
    a = m2.basis_element(1)
    rep = m_bounded_norm(a, good, m2)
    assert not rep.hermitian
    assert "quadratic" not in rep.routes
    assert abs(rep.value - 1.0) < 1e-9


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


def test_weak_product_is_scale_covariant_at_extreme_scales(m2, good):
    a, b = _rand_elem(m2, 21), _rand_elem(m2, 22)
    ref, ref_rep = weak_product(a, b, good, m2)
    for s in (1e300, 1e-200):
        for left, right in ((s * a.coeffs, b.coeffs), (a.coeffs, s * b.coeffs)):
            c, rep = weak_product(m2.element(left), m2.element(right), good, m2)
            assert np.allclose(c.coeffs, s * ref.coeffs, rtol=1e-12, atol=0.0), s
            assert rep.rhs_norm == pytest.approx(s * ref_rep.rhs_norm, rel=1e-12)
    # scaling by a power of two is exact, so the coefficients are too
    c, _ = weak_product(m2.element(np.ldexp(a.coeffs.view(float), 60).view(complex)), b, good, m2)
    assert np.array_equal(c.coeffs.view(float), np.ldexp(ref.coeffs.view(float), 60))


def test_weak_product_overflow_is_typed(m2, good):
    huge = m2.element([1, 0, 0, 1e300])
    with pytest.raises(ProductOverflow, match="overflows"):
        weak_product(huge, huge, good, m2)
    # a product below the float range underflows to zero; that is no error
    tiny = m2.element([1e-200, 0, 0, 0])
    c, _ = weak_product(tiny, tiny, good, m2)
    assert not c.coeffs.any()


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


def _per_pair_lstsq(family, alg, tol=DEFAULT_TOL):
    """Relative residual of each ordered basis pair's product, one lstsq per pair."""
    reps = family.context(alg, tol).reps
    M = np.vstack([rep.rep_mats.reshape(alg.dim, -1).T for rep in reps])
    rel = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            t = np.concatenate([(rep.rep_mats[i] @ rep.rep_mats[j]).reshape(-1) for rep in reps])
            c = np.linalg.lstsq(M, t, rcond=None)[0]
            rel.append(np.linalg.norm(M @ c - t) / max(np.linalg.norm(t), 1.0))
    return M.shape, np.linalg.matrix_rank(M), rel


def test_condition_product_matches_per_pair_reference():
    # one lstsq per pair, as a reference for the single SVD solve: the same
    # verdict and failing pairs, and the worst residual to 1e-9 of
    # max(1, residual), the scale its rounding is measured at
    pairs = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values() if fam.context(b["instance"], DEFAULT_TOL).dense_seeds]
    for n in (4, 6):
        pairs += make_corpus(count=2, seed=80 + n, n_min=n, n_max=n)
    maps = []
    for inst, fam in pairs:
        shape, rank, rel = _per_pair_lstsq(fam, inst)
        maps.append((shape, rank))
        out = check_condition_product(fam, inst)
        failing = [(k // inst.dim, k % inst.dim) for k, v in enumerate(rel) if v > DEFAULT_TOL.weak]
        assert out["holds"] == (not failing)
        assert out["n_failures"] == len(failing)
        assert [(f["left"], f["right"]) for f in out["failures"]] == failing[:10]
        worst = max(rel)
        assert abs(out["worst_relative_residual"] - worst) <= 1e-9 * max(1.0, worst)
    # m3_pattern's good family fails, and m2_flip's amb family stacks a 1 x 2 map of rank 1
    assert not check_condition_product(load_bundle("m3_pattern")["families"]["good"],
                                       load_bundle("m3_pattern")["instance"])["holds"]
    assert ((1, 2), 1) in maps


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


def _count_svd(monkeypatch):
    count = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        count[0] += 1
        return svd(*args, **kwargs)

    for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        monkeypatch.setattr(module, "svd", counted)
    return count


def test_ambiguity_of_a_square_system_reuses_its_thin_svd(monkeypatch):
    diag = load_bundle("m2_diag")
    inst, fam = diag["instance"], diag["families"]["bad"]
    M = fam.context(inst, DEFAULT_TOL).weak_system[0]
    assert M.shape == (4, 4)
    count = _count_svd(monkeypatch)
    with pytest.raises(AmbiguousProduct) as exc:
        weak_product(inst.basis_element(1), inst.basis_element(2), fam, inst)
    assert count[0] == 0
    # the direction the full SVD gives, up to phase
    full = svd_full(M)[2].conj().T[:, -1]
    assert abs(abs(np.vdot(full, exc.value.null_coeffs)) - 1.0) <= 1e-12


def test_ambiguity_of_a_wide_system_takes_the_full_svd(monkeypatch):
    flip = load_bundle("m2_flip")
    inst, fam = flip["instance"], flip["families"]["amb"]
    M = fam.context(inst, DEFAULT_TOL).weak_system[0]
    assert M.shape == (1, 2)
    count = _count_svd(monkeypatch)
    with pytest.raises(AmbiguousProduct) as exc:
        weak_product(inst.basis_element(1), inst.basis_element(1), fam, inst)
    assert count[0] == 1
    null = np.asarray(exc.value.null_coeffs)
    assert np.linalg.norm(null) == pytest.approx(1.0)
    assert np.linalg.norm(M @ null) <= 1e-12


# -- radical ---------------------------------------------------------------

def _full_svd_null(M, rank_tol):
    _, s, Vh = svd_full(M)
    rank = int(np.sum(s > rank_tol * max(float(s.max(initial=0.0)), 1e-300)))
    return Vh.conj().T[:, rank:]


def test_null_basis_matches_the_full_svd_for_tall_and_wide_maps():
    rng = np.random.default_rng(23)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    tall = cplx(40, 3) @ cplx(3, 6)     # 40 x 6 of rank 3
    wide = cplx(2, 7)                   # more null directions (5) than rows (2)
    for M, dim in ((tall, 3), (wide, 5)):
        N, ref = _null_basis(M, 1e-10), _full_svd_null(M, 1e-10)
        assert N.shape == ref.shape == (M.shape[1], dim)
        assert np.linalg.norm(N @ N.conj().T - ref @ ref.conj().T, 2) <= 1e-10
        assert np.linalg.norm(M @ N) <= 1e-10 * np.linalg.norm(M)


def test_radical_through_qr_matches_the_full_svd_reports(monkeypatch):
    # a tall map's null basis comes from the SVD of its QR triangle; every
    # radical report keeps its dimension, kernel dimensions and check flags,
    # and its subspace gaps stay at rounding level, against the full SVD
    pairs = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=2) + make_corpus(count=3, seed=8, n_min=4, n_max=8)
    reports = [radical(fam, inst).as_dict() for inst, fam in pairs]
    monkeypatch.setattr(bounded, "_null_basis", _full_svd_null)
    for (inst, fam), got in zip(pairs, reports):
        want = radical(FormFamily(fam.seeds, fam.balanced, fam.twist_depth, fam.label),
                       inst).as_dict()
        assert got["dim"] == want["dim"]
        assert [c["passed"] for c in got["checks"]] == [c["passed"] for c in want["checks"]]
        for g, w in zip(got["checks"], want["checks"]):
            assert g["data"].get("rep_kernel_dim") == w["data"].get("rep_kernel_dim")
            if "gap" in w["data"]:
                assert abs(g["data"]["gap"] - w["data"]["gap"]) <= 1e-12


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


def _two_stack_laws(family, alg, probes, tol=DEFAULT_TOL):
    """``extract_bounded_algebra`` with its norms in two stacks, the probes,
    adjoints and sums before the products are solved and the resolved
    products after: the reference the one-stack version must match."""
    P = np.reshape([p.coeffs for p in probes], (len(probes), alg.dim))
    Ps = P.conj() @ alg.star_matrix()[0].T
    n, m = len(P), min(len(P), 8)
    left, right = np.divmod(np.arange(m * m), m)
    first, herm = m_bounded_values(np.vstack([P, Ps, P[left] + P[right]]), family, alg, tol)
    first = first.tolist()
    norms = first[:n]
    table = [{"probe": idx, "norm": v, "hermitian": bool(h)}
             for idx, (v, h) in enumerate(zip(norms, herm))]
    worst_star = max([0.0, *(abs(value - v) / max(v, 1.0)
                             for value, v in zip(first[n:2 * n], norms))])
    bounds = [norms[i] + norms[j] for i, j in zip(left, right)]
    worst_tri = max([0.0, *((value - b) / max(b, 1.0)
                            for value, b in zip(first[2 * n:], bounds))])
    try:
        prods = weak_products(np.vstack([P[left], Ps[:m]]), np.vstack([P[right], P[:m]]),
                              family, alg, tol)
    except AmbiguousProduct:
        prods = [None] * (m * m + m)
    for out in prods:
        if isinstance(out, ProductOverflow):
            raise out
    kept = [(idx, out[0].coeffs) for idx, out in enumerate(prods) if isinstance(out, tuple)]
    found, _ = m_bounded_values(np.reshape([c for _, c in kept], (len(kept), alg.dim)),
                                family, alg, tol)
    worst_sub = worst_cstar = 0.0
    for (idx, _), value in zip(kept, found.tolist()):
        if idx < m * m:
            bound = norms[left[idx]] * norms[right[idx]]
            worst_sub = max(worst_sub, (value - bound) / max(bound, 1.0))
        else:
            sq = norms[idx - m * m] ** 2
            worst_cstar = max(worst_cstar, abs(value - sq) / max(sq, 1.0))
    checks = [
        CheckResult("star-isometry", worst_star <= tol.cross_check * 10,
                    {"worst_relative_gap": worst_star}),
        CheckResult("triangle", worst_tri <= tol.cross_check * 10,
                    {"worst_relative_excess": worst_tri}),
        CheckResult("submultiplicative", worst_sub <= tol.cross_check * 10,
                    {"worst_relative_excess": worst_sub}),
        CheckResult("square-identity", worst_cstar <= tol.cstar,
                    {"worst_relative_gap": worst_cstar},
                    note="norm of a*oa equals the squared norm of a"),
    ]
    return {"norms": table, "checks": [c.as_dict() for c in checks],
            "all_passed": all(c.passed for c in checks),
            "skipped_products": len(prods) - len(kept)}


def _outcome(fn, *args):
    try:
        return dumps(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _infinite_norm_family(eps=1e-6):
    # m3_pattern's good family plus the non-dense Gram seed E55 + eps 11^T
    m3 = load_bundle("m3_pattern")
    inst, good = m3["instance"], m3["families"]["good"]
    G = np.full((7, 7), eps)
    G[5, 5] += 1.0
    seed = IpsForm("gram", G, "E55")
    return inst, FormFamily(good.seeds + (seed,), good.balanced, good.twist_depth, "good+E55")


def test_bounded_algebra_laws_match_the_two_stack_version():
    pairs = [(b["instance"], fam) for b in map(load_bundle, ("m2_diag", "m2_full", "m3_pattern",
                                                             "m2_flip", "lp_k2_p4"))
             for fam in b["families"].values()]
    for n in (4, 6):
        pairs += make_corpus(count=3, seed=60 + n, n_min=n, n_max=n)
    pairs.append(_infinite_norm_family())
    for inst, fam in pairs:
        probes = [inst.basis_element(i) for i in range(inst.dim)]
        probes += [p.star() for p in probes]
        for m in (6, 12):
            want = _outcome(_two_stack_laws, fam, inst, probes[:m])
            assert _outcome(extract_bounded_algebra, fam, inst, probes[:m]) == want
    # on the infinite-norm family the laws hold with most norms and products out of reach
    inst, fam = _infinite_norm_family()
    probes = [inst.basis_element(i) for i in range(inst.dim)]
    out = extract_bounded_algebra(fam, inst, probes[:6])
    assert sum(np.isinf(row["norm"]) for row in out["norms"]) == 5
    assert out["skipped_products"] == 35 and out["all_passed"]


def test_insufficient_family_reads_the_separation_verdict(m2, bad):
    # the norm and the qualification read the family's separation data,
    # not the sufficiency report with its degeneracy self-check; both still
    # give the report's numbers
    suff = check_sufficiency(bad, m2)
    with pytest.raises(NotSufficient) as err:
        m_bounded_norm(m2.unit, bad, m2)
    assert str(err.value) == (f"family {bad.label!r} does not separate points "
                              f"(null dimension {suff.dim_null}); the norm is not definite")
    sep = ga_star_check(bad, m2).as_dict()["conditions"][0]
    assert sep["name"] == "separates-points" and not sep["passed"]
    assert sep["data"] == {"dim_null": suff.dim_null, "margin": suff.margin,
                           "witness_coeffs": [[z.real, z.imag] for z in suff.witness_coeffs],
                           "max_witness_value": suff.max_witness_value}


def test_norm_values_are_the_reports_fields(m2, good, monkeypatch):
    C = np.vstack([np.eye(m2.dim), [_rand_elem(m2, s).coeffs for s in range(5)]])
    C[-1] *= 1e-200
    values, herm = m_bounded_values(C, good, m2)
    reports = [m_bounded_norm(m2.element(c), good, m2) for c in C]
    # a stack and a one-row call may differ in the last bits (test_stacked)
    np.testing.assert_array_max_ulp(values, [rep.value for rep in reports], maxulp=16)
    assert herm.tolist() == [rep.hermitian for rep in reports]
    monkeypatch.setattr(GnsRep, "rep_norm", lambda self, a: np.full(len(a), np.nan))
    raised = []
    # the stack raises on its first row, as the report of that row does
    for call in (lambda: m_bounded_values(C, good, m2),
                 lambda: m_bounded_norm(m2.element(C[0]), good, m2)):
        with pytest.raises(CharacterizationMismatch) as err:
            call()
        raised.append(str(err.value))
    assert raised[0] == raised[1]


def _pencil_with_every_leak_solved(C, family, alg, tol=DEFAULT_TOL):
    """The pencil route of each row, scaled back, with every leak taken by
    eigvalsh as ``QuotientSection.leak`` takes it, and the per-seed leaks:
    the reference for the Frobenius certificate."""
    ctx = family.context(alg, tol)
    X, s = scaled_rows(C)
    mats = (X @ np.reshape(alg.basis, (alg.dim, -1))).reshape(-1, alg.n, alg.n)
    slack = tol.psd * np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)) ** 2)
    AX = (_right_mults(alg, tol) @ X.T).transpose(2, 1, 0)
    pencil, leaks = np.zeros(len(X)), []
    for G, (full, sec) in zip(ctx.seed_grams, ctx.sections):
        if not sec.w.size:
            continue
        T = _hermitian_part(AX.conj().transpose(0, 2, 1) @ (G @ AX))
        leak = sec.leak(T) / max(full.wmax, 1e-300)
        pencil = np.maximum(pencil, np.where(leak > slack, np.inf, sec.gain(T)))
        leaks.append((leak, slack))
    return s * pencil, leaks


def test_leak_certificate_keeps_every_decision_and_value():
    pairs = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values()]
    for n in (4, 6):
        pairs += make_corpus(count=2, seed=90 + n, n_min=n, n_max=n)
    pairs += [_infinite_norm_family(eps) for eps in (1e-9, 1e-6, 1e-3)]
    rng = np.random.default_rng(31)
    unbounded = 0
    for inst, fam in pairs:
        if fam.context(inst, DEFAULT_TOL).separation[0]:
            continue
        d = inst.dim
        rand = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        C = np.vstack([np.eye(d), rand, rand[0] + inst.element(rand[0]).star().coeffs,
                       1e-200 * rand[1], 1e300 * rand[2], np.zeros(d)])
        want, leaks = _pencil_with_every_leak_solved(C, fam, inst)
        got = m_bounded_values(C, fam, inst)[0]
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got, want)
        # the reported leak is the one the decision used: eigvalsh's above the
        # threshold, and a bound below it everywhere else
        per_seed = _norm_routes(C, fam, inst, DEFAULT_TOL)[3]
        assert len(per_seed) == len(leaks)
        for (_, _, _, leak), (full, slack) in zip(per_seed, leaks):
            over = full > slack
            assert np.array_equal(leak[over], full[over])
            assert (leak[~over] <= slack[~over]).all()
        unbounded += int(np.isinf(got).sum())
    assert unbounded > 0


def test_bounded_algebra_norm_stack_takes_each_triangle_sum_once(monkeypatch):
    # the norm stack holds the probes, their adjoints, the sums over i < j
    # and the resolved products: 2n + m(m - 1)/2 + resolved rows
    rows = []
    values = bounded.m_bounded_values
    monkeypatch.setattr(bounded, "m_bounded_values",
                        lambda C, *a: rows.append(len(C)) or values(C, *a))
    cases = [(b["instance"], fam) for b in map(load_bundle, ("m2_diag", "m2_full", "m3_pattern"))
             for fam in b["families"].values()]
    cases += make_corpus(count=2, seed=64, n_min=4, n_max=4) + [_infinite_norm_family()]
    for inst, fam in cases:
        if fam.context(inst, DEFAULT_TOL).separation[0]:
            continue
        probes = [inst.basis_element(i) for i in range(inst.dim)]
        probes += [p.star() for p in probes]
        for k in (1, 6, 12):
            rows.clear()
            out = extract_bounded_algebra(fam, inst, probes[:k])
            n = len(probes[:k])
            m = min(n, 8)
            resolved = m * m + m - out["skipped_products"]
            assert rows == [2 * n + m * (m - 1) // 2 + resolved]
