"""Forms layer: evaluation conventions, twists, families, sufficiency."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, ClosureViolation, EmptyFamily, FormFamily,
                      IpsForm, NotInA0, NotIps, ParseError,
                      QuasiAlgebraInstance, check_sufficiency, form_equal,
                      degeneracy_residuals, form_proportional, invariance_residual, is_dense,
                      load_bundle, m_bounded_norm, m_bounded_values, twist, validate_family,
                      validate_ips_form)
from qstarlab.report import dumps

BUNDLES = ("m2_diag", "m2_full", "m3_pattern", "m2_flip", "lp_k2_p4")


@pytest.fixture(scope="module")
def m2():
    return load_bundle("m2_diag")["instance"]


@pytest.fixture(scope="module")
def good(m2):
    return load_bundle("m2_diag")["families"]["good"]


@pytest.fixture(scope="module")
def bad():
    return load_bundle("m2_diag")["families"]["bad"]


def _rand_elem(alg, seed):
    rng = np.random.default_rng(seed)
    return alg.element(rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim))


# -- evaluation ------------------------------------------------------------

def test_vector_state_eval_is_trace(m2):
    S = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    phi = IpsForm("vector_state", S)
    a, b = _rand_elem(m2, 1), _rand_elem(m2, 2)
    direct = np.trace(b.matrix.conj().T @ a.matrix @ S)
    assert abs(phi.eval(a, b) - direct) < 1e-12


def test_gram_matrix_matches_eval_on_basis(m2, good):
    phi = good.seeds[0]
    G = phi.gram(m2)
    for i in range(m2.dim):
        for j in range(m2.dim):
            v = phi.eval(m2.basis_element(j), m2.basis_element(i))
            assert abs(G[i, j] - v) < 1e-12


def test_gram_kind_eval(m2):
    G = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    phi = IpsForm("gram", G)
    a, b = _rand_elem(m2, 3), _rand_elem(m2, 4)
    assert abs(phi.eval(a, b) - b.coeffs.conj() @ G @ a.coeffs) < 1e-12


def test_sesquilinearity(m2, good):
    phi = good.seeds[0]
    a, b = _rand_elem(m2, 5), _rand_elem(m2, 6)
    z = 0.7 - 1.3j
    assert abs(phi.eval(a * z, b) - z * phi.eval(a, b)) < 1e-10
    assert abs(phi.eval(a, b * z) - np.conj(z) * phi.eval(a, b)) < 1e-10
    # conjugate symmetry comes from positivity of the payload
    assert abs(phi.eval(a, b) - np.conj(phi.eval(b, a))) < 1e-10


def test_form_equal_across_kinds(m2, good):
    phi = good.seeds[0]
    psi = IpsForm("gram", phi.gram(m2))
    assert form_equal(phi, psi, m2)
    assert not form_equal(phi, IpsForm("gram", 3.0 * phi.gram(m2)), m2)
    assert form_proportional(phi, IpsForm("gram", 3.0 * phi.gram(m2)), m2)


def test_form_payload_validation():
    with pytest.raises(ParseError):
        IpsForm("unknown", np.eye(2))
    with pytest.raises(ParseError):
        IpsForm("gram", np.ones((2, 3)))


def test_gram_payload_must_match_instance(m2):
    phi = IpsForm("gram", np.eye(3, dtype=complex))
    with pytest.raises(ParseError):
        phi.gram(m2)


# -- twisting --------------------------------------------------------------

def test_twist_matches_definition_vector_state(m2, good):
    phi = good.seeds[0]
    x = m2.a0_basis_element(1)
    tw = twist(phi, x)
    a, b = _rand_elem(m2, 8), _rand_elem(m2, 9)
    ax = m2.element_from_matrix(a.matrix @ x.matrix)
    bx = m2.element_from_matrix(b.matrix @ x.matrix)
    assert abs(tw.eval(a, b) - phi.eval(ax, bx)) < 1e-10
    assert tw.label.endswith("^tw")


def test_twist_matches_definition_gram(m2, good):
    phi = IpsForm("gram", good.seeds[0].gram(m2))
    x = m2.a0_basis_element(1)
    tw = twist(phi, x)
    a, b = _rand_elem(m2, 10), _rand_elem(m2, 11)
    ax = m2.element_from_matrix(a.matrix @ x.matrix)
    bx = m2.element_from_matrix(b.matrix @ x.matrix)
    assert abs(tw.eval(a, b) - phi.eval(ax, bx)) < 1e-10


def test_twist_requires_subalgebra_element(m2, good):
    with pytest.raises(NotInA0):
        twist(good.seeds[0], m2.basis_element(1))


def test_twist_composition_order(m2, good):
    # twisting by x then y equals one twist by the product y.x
    phi = good.seeds[0]
    x = m2.a0_basis_element(1)
    y = m2.unit + m2.a0_basis_element(1) * 0.5
    yx = m2.element_from_matrix(y.matrix @ x.matrix)
    lhs = twist(twist(phi, x), y)
    rhs = twist(phi, yx)
    assert form_equal(lhs, rhs, m2)


# -- validation ------------------------------------------------------------

def test_seed_forms_validate(m2, good):
    for phi in good.seeds:
        rep = validate_ips_form(phi, m2)
        assert rep.accepted, [c.name for c in rep.checks if not c.passed]
        assert rep.rank_sub == rep.rank_full


def test_density_failure_detected(m2):
    # the normalized trace sees all four directions but the diagonal
    # subalgebra only reaches two of them
    halftrace = IpsForm("vector_state", np.eye(2, dtype=complex) / 2.0)
    assert not is_dense(halftrace, m2)
    rep = validate_ips_form(halftrace, m2)
    assert not rep.accepted
    assert rep.rank_sub < rep.rank_full
    rep2 = validate_ips_form(halftrace, m2, require_density=False)
    assert rep2.accepted


def test_rounding_noise_in_the_subalgebra_block_has_rank_zero():
    # E_55 + eps * 11^T: the block on A0 = span(0, 1, 2) is eps * 11^T, far
    # below the rank cutoff of the whole Gram, so every eps answers as eps = 0
    m3 = load_bundle("m3_pattern")
    inst, good = m3["instance"], m3["families"]["good"]
    basis = np.eye(inst.dim)
    answers = []
    for eps in (0.0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
        G = np.full((7, 7), eps)
        G[5, 5] += 1.0
        phi = IpsForm("gram", G, "E55")
        rep = validate_ips_form(phi, inst)
        fam = FormFamily(good.seeds + (phi,), good.balanced, good.twist_depth, "good+E55")
        norms = m_bounded_values(basis, fam, inst)[0].tolist()
        np.testing.assert_array_max_ulp(
            norms, [m_bounded_norm(inst.element(c), fam, inst).value for c in basis], maxulp=16)
        answers.append((rep.accepted, rep.rank_full, rep.rank_sub, norms))
    assert answers[0][:3] == (False, 1, 0)
    assert all(0.999 < v < 1.001 for v in answers[0][3])
    assert answers == [answers[0]] * len(answers)


def test_subalgebra_rank_never_exceeds_the_full_rank(m2, good):
    # E_11 (basis index 1 lies outside A0 = span(0, 3)) plus 1e-15 G0 / ||G0||,
    # G0 the seed's Gram: the subalgebra block holds rounding-level mass only
    G0 = good.seeds[0].gram(m2)
    G = 1e-15 * G0 / np.linalg.norm(G0, 2)
    G[1, 1] += 1.0
    rep = validate_ips_form(IpsForm("gram", G), m2)
    assert rep.rank_sub <= rep.rank_full == 1


def test_invariance_failure_detected(m2):
    phi = IpsForm("gram", np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    res, scale = invariance_residual(phi, m2)
    assert res > 1e-3 * scale
    rep = validate_ips_form(phi, m2, require_density=False)
    assert any(c.name == "module-invariance" and not c.passed for c in rep.checks)


def test_invariance_holds_on_bundle_seeds(m2, good):
    for phi in good.seeds:
        res, scale = invariance_residual(phi, m2)
        assert res <= 1e-10 * scale


def test_negative_payload_rejected(m2):
    phi = IpsForm("gram", np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex))
    rep = validate_ips_form(phi, m2, require_density=False)
    assert any(c.name == "payload-positive" and not c.passed for c in rep.checks)


# -- families and closure --------------------------------------------------

def test_unbalanced_family_is_seeds_exactly(m2, bad):
    assert bad.forms(m2) == bad.seeds


def test_balanced_closure_size(m2, good):
    forms = good.forms(m2)
    assert len(forms) == 2  # seed plus one genuinely new twist direction


def test_closure_drops_proportional_duplicates(m2, good):
    phi = good.seeds[0]
    fam = FormFamily([phi, IpsForm("gram", 3.0 * phi.gram(m2), label="scaled")],
                     balanced=True)
    assert len(fam.forms(m2)) == len(good.forms(m2))


def test_closure_drops_zero_twists(m2, bad):
    # the point state at the first coordinate dies under the twist by the
    # diagonal unit at the second; the closure must not keep a zero form
    fam = FormFamily(list(bad.seeds), balanced=True)
    forms = fam.forms(m2)
    assert len(forms) == 1
    assert all(np.linalg.norm(phi.gram(m2), 2) > 1e-12 for phi in forms)


def test_validate_family_bundles():
    for name in ("m2_diag", "m2_full", "m3_pattern", "m2_flip", "lp_k2_p4"):
        b = load_bundle(name)
        for fam in b["families"].values():
            rep = validate_family(fam, b["instance"])
            assert rep.accepted, (name, fam.label,
                                  [c.name for c in rep.checks if not c.passed])


def test_twist_stability_twists_only_the_last_round(monkeypatch):
    # the closure twists the seed's factor by every basis element at once;
    # the stability check twists only the one member the closure added in
    # its last round, so re-twisting every member would pass three factors
    from qstarlab import forms
    make, grams = forms._factor_twister, []

    def counting(R):
        twists = make(R)
        return lambda G, floor, P=None: grams.append(G) or twists(G, floor, P)
    monkeypatch.setattr(forms, "_factor_twister", counting)
    b = load_bundle("m2_diag")
    fam, inst = b["families"]["good"], b["instance"]
    rep = validate_family(fam, inst)
    members, member_grams, _ = fam.context(inst).closure
    member_factors = fam.context(inst).factors
    assert len(members) == 2
    assert len(grams) == 2
    assert grams[0] is member_factors[0] and grams[1] is member_factors[1]
    stability = next(c for c in rep.checks if c.name == "twist-stability")
    assert stability.passed and stability.note == "closure reproduces itself under basis twists"


def test_twist_stability_fails_on_an_unclosed_family():
    # at depth 0 the closure is the seeds alone; a seed with a twist in a
    # new direction must fail the check, and the note names the twist
    cases = {("m2_diag", "good"): "xi11 twisted by basis index 3",
             ("m3_pattern", "good"): "xi111 twisted by basis index 2",
             ("m2_full", "trace"): "halftrace twisted by basis index 3",
             ("m2_full", "rank1"): "xi11 twisted by basis index 3",
             ("m2_diag", "bad"): None}
    for (name, label), note in cases.items():
        b = load_bundle(name)
        fam = FormFamily(b["families"][label].seeds, balanced=True, twist_depth=0)
        rep = validate_family(fam, b["instance"])
        stability = next(c for c in rep.checks if c.name == "twist-stability")
        assert stability.passed == (note is None), (name, label)
        assert stability.note == (note or "closure reproduces itself under basis twists")


def _unit_gram(rng, d, rank):
    X = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    P = X @ X.conj().T
    return P / np.linalg.norm(P, 2)


def test_classify_agrees_with_the_spectral_definition():
    # perturbations at spectral distances around tol.form, at scales from
    # 1e-150 to 1e150: the Frobenius certificate and the exact band must
    # reproduce |G/|G|_2 - K|_2 <= tol.form away from the boundary itself
    from qstarlab.forms import _classify
    rng = np.random.default_rng(17)
    tol = DEFAULT_TOL
    checked = 0
    for d in (3, 8, 16):
        empty = np.empty((0, d, d), dtype=complex)
        assert _classify(np.zeros((d, d), dtype=complex), empty, 0.0, tol) == "zero"
        for trial in range(6):
            units = np.stack([_unit_gram(rng, d, 1 + (trial + k) % d) for k in range(3)])
            for t in (0.0, 0.5, 0.9, 1.1, 2.0):
                E = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                E = E + E.conj().T
                U = units[trial % 3] + t * tol.form * E / np.linalg.norm(E, 2)
                for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
                    G = scale * U
                    gn = np.linalg.norm(G, 2)
                    dist = min(np.linalg.norm(G / gn - K, 2) for K in units) / tol.form
                    if abs(dist - 1.0) <= 1e-6:
                        continue
                    got = _classify(G, units, 0.0, tol)
                    assert got == ("known" if dist <= 1.0 else "new"), (d, trial, t, scale)
                    assert _classify(G, empty, 0.0, tol) == "new"
                    assert _classify(G, units, 2.0 * gn, tol) == "zero"
                    if dist > 1.0:
                        assert _classify(G, units, 0.5 * gn, tol) == "new"
                    checked += 1
    assert checked == 3 * 6 * 5 * 5


def test_family_validation_takes_one_spectral_norm_per_member(monkeypatch):
    # closure building, member validation and the stability check decide
    # from Frobenius norms; only a member the closure keeps needs |G|_2
    inst, fam = make_corpus(count=1, seed=8, n_min=8, n_max=8)[0]
    count = [0]
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        monkeypatch.setattr(module, "svd", counted)
    rep = validate_family(fam, inst)
    assert rep.accepted
    assert count[0] <= rep.closure_size


def test_family_validation_builds_each_seed_gram_once(monkeypatch):
    # the seed reports read the Grams and quotient sections that the
    # family context holds, rather than validating each seed afresh
    counted = []
    gram = IpsForm.gram
    monkeypatch.setattr(IpsForm, "gram", lambda phi, alg: counted.append(phi) or gram(phi, alg))
    pairs = make_corpus(count=3, seed=1, n_min=8, n_max=8)
    pairs.append((load_bundle("m2_full")["instance"], load_bundle("m2_full")["families"]["trace"]))
    for inst, fam in pairs:
        counted.clear()
        validate_family(fam, inst)
        assert sorted(map(id, counted)) == sorted(map(id, fam.seeds))


def test_family_reports_ignore_the_global_random_state():
    out = []
    for state in (1, 2):
        inst, fam = make_corpus(count=2, seed=8, n_min=8, n_max=8)[1]
        np.random.seed(state)
        np.random.standard_normal(100)
        out.append(dumps([validate_family(fam, inst).as_dict(),
                          check_sufficiency(fam, inst).as_dict()]))
    assert out[0] == out[1]


def test_family_json_round_trip(m2, good):
    fam = FormFamily.from_json(good.as_jsonable())
    assert fam.balanced == good.balanced
    assert fam.twist_depth == good.twist_depth
    assert len(fam.seeds) == len(good.seeds)
    for a, b in zip(fam.seeds, good.seeds):
        assert form_equal(a, b, m2)


def test_family_json_default_labels():
    G = np.eye(2).tolist()
    fam = FormFamily.from_json(
        {"generators": [{"kind": "gram", "G": G}, {"kind": "gram", "G": G}]})
    assert [f.label for f in fam.seeds] == ["phi0", "phi1"]


def test_family_is_immutable(good):
    with pytest.raises(AttributeError):
        good.twist_depth = 0
    assert good.twist_depth == 1


def test_context_follows_instance_and_tolerance(m2, good):
    ctx = good.context(m2)
    assert good.context(m2) is ctx
    loose = DEFAULT_TOL.override(form=1e-6)
    assert good.context(m2, loose) is not ctx
    other = load_bundle("m2_diag")["instance"]
    assert good.context(other).alg is other


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_invariance_residual_matches_loop_reference(m2):
    # a random positive Gram payload is not invariant, so the residual is O(1)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(m2.dim, m2.dim)) + 1j * rng.normal(size=(m2.dim, m2.dim))
    phi = IpsForm("gram", X @ X.conj().T)
    G = phi.gram(m2)
    S, _ = m2.star_matrix()
    R = {j: m2.right_mult_matrix(m2.basis[j])[0] for j in m2.a0_indices}
    ref = max(np.abs(G[k, :] @ R[j] - S.conj().T @ (R[k].conj().T @ G[:, j])).max()
              for j in m2.a0_indices for k in m2.a0_indices)
    assert ref > 1e-3
    assert invariance_residual(phi, m2)[0] == pytest.approx(ref, rel=1e-12)


def test_right_mult_check_respects_each_callers_tolerance():
    # right multiplication by the third subalgebra element leaves the span
    # at relative size 1e-5: loose tolerances accept that, the default does not
    basis = [np.eye(3), _e(3, 1, 1), _e(3, 2, 2) + 1e-5 * _e(3, 1, 2),
             _e(3, 0, 1), _e(3, 1, 0), _e(3, 1, 2), _e(3, 2, 1)]
    inst = QuasiAlgebraInstance(basis, [0, 1, 2], 0)
    phi = IpsForm("vector_state", np.eye(3) / 3.0)
    invariance_residual(phi, inst, DEFAULT_TOL.override(structure=1e-2))
    with pytest.raises(ClosureViolation):
        invariance_residual(phi, inst, DEFAULT_TOL)


# -- sufficiency -----------------------------------------------------------

def test_sufficient_family(m2, good):
    rep = check_sufficiency(good, m2)
    assert rep.sufficient
    assert rep.dim_null == 0
    assert rep.margin > 1e-6
    assert all(c.passed for c in rep.checks)


def test_insufficient_family_has_witness(m2, bad):
    rep = check_sufficiency(bad, m2)
    assert not rep.sufficient
    assert rep.dim_null == 2
    w = m2.element(np.array([complex(re, im) for re, im in
                             np.column_stack([np.real(rep.witness_coeffs),
                                              np.imag(rep.witness_coeffs)])]))
    assert abs(w.norm_frobenius() - 1.0) < 1e-9
    # the witness is annihilated by every stored form
    assert rep.max_witness_value <= 1e-10
    assert all(v <= 1e-10 for v in rep.witness_values.values())


def test_degeneracy_equivalence_checks_pass(m2, good, bad):
    for fam in (good, bad):
        rep = check_sufficiency(fam, m2)
        assert all(c.passed for c in rep.checks)


def test_empty_family_rejected(m2):
    with pytest.raises(EmptyFamily):
        check_sufficiency(FormFamily([]), m2)


def test_no_dense_generator_raises(m2, bad):
    with pytest.raises(NotIps):
        bad.dense_forms(m2)


def test_closure_member_labels_name_their_twists():
    # each twist names the basis index that made it, so no two members of a
    # closure share a label, at any depth
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=3, seed=5)
    for inst, fam in pairs:
        for depth in (0, 1, 2):
            labels = [m.label for m in FormFamily(fam.seeds, True, depth).forms(inst)]
            assert len(set(labels)) == len(labels), labels
            assert all(label.rpartition("^tw")[2] in {str(i) for i in inst.a0_indices}
                       for label in labels if "^tw" in label), labels


def test_closure_stops_growing_at_its_fixed_point(monkeypatch):
    # a round that adds nothing leaves nothing to twist, so a depth far past
    # the fixed point gives the depth-3 family and twists no more often
    from qstarlab import forms
    make, calls = forms._factor_twister, []

    def counting(R):
        twists = make(R)
        return lambda G, floor, P=None: calls.append(G) or twists(G, floor, P)
    monkeypatch.setattr(forms, "_factor_twister", counting)
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=3, seed=5)
    for inst, fam in pairs:
        seen = []
        for depth in (3, 10 ** 9):
            calls.clear()
            ctx = FormFamily(fam.seeds, True, depth, fam.label).context(inst)
            members, grams, _ = ctx.closure
            rounds = len(calls)
            rep = validate_family(FormFamily(fam.seeds, True, depth, fam.label), inst).as_dict()
            del rep["twist_depth"]
            seen.append(([m.label for m in members], grams, rounds, dumps(rep)))
        (labels, grams, rounds, rep), (labels_deep, grams_deep, rounds_deep, rep_deep) = seen
        assert labels_deep == labels
        assert all(np.array_equal(a, b) for a, b in zip(grams, grams_deep, strict=True))
        assert rounds_deep <= rounds
        assert rep_deep == rep


def test_witness_values_cover_every_closure_member():
    m3 = load_bundle("m3_pattern")["instance"]
    v = np.array([0.0, 1.0, 1.0])
    fam = FormFamily([IpsForm("vector_state", np.outer(v, v), label="xi011")], True, 1)
    rep = check_sufficiency(fam, m3)
    assert not rep.sufficient
    assert list(rep.witness_values) == ["xi011", "xi011^tw1", "xi011^tw2"]
    assert [m.label for m in fam.forms(m3)] == list(rep.witness_values)


def test_stability_check_forms_only_the_twists_not_certified_zero(monkeypatch):
    # the seed-8 pair's last closure round has 240 twists, 203 of them zero;
    # the Frobenius certificate keeps those from being formed
    from qstarlab import forms
    inst, fam = make_corpus(count=1, seed=8, n_min=8, n_max=8)[0]
    ctx = fam.context(inst)
    ctx.closure  # built first, so that only the stability check's twists are counted
    make, rows = forms._factor_twister, []

    def counting(R):
        twists = make(R)

        def formed(G, floor, P=None):
            kept = list(twists(G, floor, P))
            rows.append(len(kept))
            return kept
        return formed
    monkeypatch.setattr(forms, "_factor_twister", counting)
    rep = validate_family(fam, inst)
    assert next(c for c in rep.checks if c.name == "twist-stability").passed
    assert len(rows) == len(ctx.untwisted)
    assert sum(rows) <= 37


def _svd_degeneracy_residuals(a, fam, alg):
    """The one-probe residuals as spectral norms of the pairing matrix parts."""
    _, grams, norms = fam.context(alg).closure
    G = np.array(grams, dtype=complex).reshape(-1, alg.dim, alg.dim)
    R0, _ = alg.right_mult_table
    AX = (R0 @ a.coeffs).T
    GAX = G @ AX
    Q = GAX[:, list(alg.a0_indices), :]
    QH = Q.conj().transpose(0, 2, 1)
    return {"r1": float(np.linalg.norm(np.concatenate([Q + QH, Q - QH]) / 2.0, 2,
                                       axis=(1, 2)).max(initial=0.0)),
            "r2": float(np.abs(Q).max(initial=0.0)),
            "r3": float((AX.conj() * GAX).sum(axis=1).real.max(initial=0.0)),
            "r4": float((G @ a.coeffs @ a.coeffs.conj()).real.max(initial=0.0)),
            "scale": (1.0 + max(norms, default=0.0)) * (1.0 + a.norm_frobenius()) ** 2}


def test_stacked_degeneracy_rows_match_the_one_probe_residuals():
    # check_sufficiency decides all its probes from one stacked table; each
    # row is degeneracy_residuals of that probe, and r1 read from eigenvalues
    # is the spectral norm of the pairing matrix parts
    from qstarlab.forms import _degeneracy_rows
    from qstarlab.probes import random_probes
    tol = DEFAULT_TOL
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=2) + make_corpus(count=2, seed=8, n_min=8, n_max=8)
    for inst, fam in pairs:
        rep = check_sufficiency(fam, inst)
        probes = [inst.unit, inst.basis_element(0), *random_probes(inst, 2)]
        if rep.witness_coeffs is not None:
            probes.append(inst.element(rep.witness_coeffs))
        table = _degeneracy_rows(np.array([p.coeffs for p in probes]), fam, inst, tol)
        agree, iv_agree = True, True
        for row, probe, logged in zip(table, probes, rep.checks[0].data["probes"]):
            one = degeneracy_residuals(probe, fam, inst)
            ref = _svd_degeneracy_residuals(probe, fam, inst)
            for k, key in enumerate(("r1", "r2", "r3", "r4", "scale")):
                assert row[k] == pytest.approx(one[key], rel=1e-14, abs=1e-14 * ref["scale"])
                assert row[k] == pytest.approx(ref[key], rel=1e-14, abs=1e-14 * ref["scale"])
                if key != "scale":
                    assert logged[key] == row[k]
            z = [ref[key] <= tol.form * ref["scale"] for key in ("r1", "r2", "r3", "r4")]
            agree = agree and z[0] == z[1] == z[2]
            iv_agree = iv_agree and z[3] == z[0]
        assert rep.checks[0].passed == agree
        if fam.balanced:
            assert rep.checks[1].passed == iv_agree


def test_invariance_residuals_match_the_batched_products_bit_for_bit():
    # two plain GEMMs per Gram give the residuals of the (j, k, i) batched
    # products exactly, with the same pairing of lhs and rhs entries
    from qstarlab.forms import _invariance_residuals, _right_mults
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=6, seed=3) + make_corpus(count=2, seed=8, n_min=8, n_max=8)
    for inst, fam in pairs:
        grams = fam.context(inst).closure[1]
        R0, (S, _) = _right_mults(inst, DEFAULT_TOL), inst.star_matrix()
        ix = np.asarray(inst.a0_indices)
        P = S.conj().T @ R0.conj().transpose(0, 2, 1)
        ref = [np.abs(G[ix, :] @ R0 - (P @ G[:, ix]).transpose(2, 0, 1)).max(initial=0.0)
               for G in grams]
        tops = [np.abs(np.linalg.eigvalsh(G)).max() for G in grams]
        worst, scale = _invariance_residuals(grams, tops, inst, DEFAULT_TOL)
        assert worst.tolist() == ref
        bnorm = max(np.linalg.norm(b) for b in inst.basis)
        assert scale.tolist() == [(1.0 + t) * (1.0 + bnorm) ** 2 for t in tops]


def test_random_probes_are_the_per_probe_draws():
    from qstarlab.probes import random_probes
    for inst in [load_bundle(name)["instance"] for name in BUNDLES] + \
            [inst for inst, _ in make_corpus(count=4, seed=2)]:
        for count, seed in ((2, 0xA11CE), (5, 7), (0, 1)):
            rng = np.random.default_rng(seed)
            ref = [inst.element(rng.standard_normal(inst.dim) + 1j * rng.standard_normal(inst.dim))
                   for _ in range(count)]
            got = random_probes(inst, count, seed)
            assert len(got) == count
            for e, r in zip(got, ref):
                assert np.array_equal(e.coeffs, (r * (1.0 / r.norm_frobenius())).coeffs)


def test_kept_twists_are_their_factor_products_bit_for_bit():
    # a kept twist's factor is the product P = F R[j] that its zero
    # certificate took, carrying the part F leaves out twisted along; the
    # Gram it is decided on is the Hermitian part of P^H diag(signs) P to the
    # bit, and is R[j]^H G R[j] up to the rounding of G's scale
    from qstarlab.forms import (_factor_twister, _hermitian_part, _right_mults, _squared_frobenius,
                                _twisted_grams)
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=8, n_min=4, n_max=8)
    formed = 0
    for inst, fam in pairs:
        fam = FormFamily(fam.seeds, True, fam.twist_depth, fam.label)
        R = _right_mults(inst, DEFAULT_TOL)
        twists, rsq = _factor_twister(R), _squared_frobenius(R)
        ctx = fam.context(inst)
        for G, fac in zip(ctx.closure[1], ctx.factors, strict=True):
            kept = list(twists(fac, 0.0))
            keep = np.array([j for j, _, _ in kept], dtype=int)
            factors = [f for _, f, _ in kept]
            grams = np.array([Gt for _, _, Gt in kept]).reshape(-1, inst.dim, inst.dim)
            P = (fac.F @ R)[keep]
            assert [f.F.tobytes() for f in factors] == [p.tobytes() for p in P]
            assert all(f.signs is fac.signs for f in factors)
            assert [f.dropped for f in factors] == list(fac.dropped * rsq[keep])
            assert grams.tobytes() == _hermitian_part(
                P.conj().transpose(0, 2, 1) @ (fac.signs[:, None] * P)).tobytes()
            ref = _twisted_grams(G, R[keep])
            scale = np.linalg.norm(G, 2) * max(np.linalg.norm(R, 2, axis=(1, 2)).max(), 1.0) ** 2
            assert np.abs(grams - ref).max(initial=0.0) <= 1e-13 * scale
            formed += len(keep)
    assert formed > 200


def _reference_closure(fam, inst, tol=DEFAULT_TOL):
    """The closure as R^H G R twists: every basis twist of every frontier
    member formed from its Gram and classified in order, with no zero
    certificate.  Returns (labels, Grams, norms, labels of the untwisted members)."""
    from qstarlab.algebra import spectral_norm
    from qstarlab.forms import _classify, _right_mults, _twisted_grams
    R, ix = _right_mults(inst, tol), inst.a0_indices
    ctx = fam.context(inst, tol)
    floor = 1e-14 * ctx.scale
    units, norms = np.empty((0, inst.dim, inst.dim), dtype=complex), []

    def fresh(G):
        nonlocal units
        if _classify(G, units, floor, tol) != "new":
            return False
        gn = spectral_norm(G)
        norms.append(gn)
        units = np.concatenate([units, (G / gn)[None]])
        return True

    seeded = [(phi.label, G) for phi, G in zip(fam.seeds, ctx.seed_grams)]
    kept = [(label, G) for label, G in seeded if fresh(G)]
    frontier = seeded
    for _ in range(fam.twist_depth):
        if not frontier:
            break
        frontier = [(f"{label}^tw{ix[j]}", Gt) for label, G in frontier
                    for j, Gt in enumerate(_twisted_grams(G, R)) if fresh(Gt)]
        kept += frontier
    untwisted = frontier if fam.twist_depth > 0 else kept
    return [lb for lb, _ in kept], [G for _, G in kept], norms, [lb for lb, _ in untwisted]


def _indefinite_gram_family(depth):
    """m2_full with one Gram-kind seed whose smallest eigenvalue is minus half its largest."""
    inst = load_bundle("m2_full")["instance"]
    G = next(iter(load_bundle("m2_full")["families"].values())).seeds[0].gram(inst)
    w, V = np.linalg.eigh(G)
    w[0] = -0.5 * np.abs(w).max()
    return inst, FormFamily([IpsForm("gram", (V * w) @ V.conj().T, label="neg")], True, depth)


def test_closure_from_factors_matches_the_twisted_gram_reference():
    # the closure decides on twists formed from each member's factor; the
    # reference forms and decides on every R^H G R.  Same members, labels and
    # order, same untwisted members, and the very Grams and norms
    cases = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    for n in (4, 6, 8):
        cases += make_corpus(count=3, seed=40 + n, n_min=n, n_max=n)
    cases = [(inst, FormFamily(fam.seeds, True, depth, fam.label))
             for inst, fam in cases for depth in (0, 1, 2)]
    cases += [_indefinite_gram_family(depth) for depth in (0, 1, 2)]
    zero_inst = load_bundle("m2_diag")["instance"]
    cases.append((zero_inst, FormFamily([IpsForm("vector_state", np.zeros((2, 2)), label="z")], True, 1)))
    derived = 0
    for inst, fam in cases:
        labels, grams, norms, untwisted = _reference_closure(fam, inst)
        ctx = fam.context(inst)
        members, got_grams, got_norms = ctx.closure
        assert [m.label for m in members] == labels
        assert [m.label for m, _ in ctx.untwisted] == untwisted
        for G, ref in zip(got_grams, grams, strict=True):
            assert G.tobytes() == ref.tobytes()
        assert list(got_norms) == norms
        assert len(ctx.factors) == len(members)
        derived += len(members) - len(fam.seeds)
    assert derived > 100


def test_indefinite_seed_twists_through_its_signed_factor():
    # a seed with a clearly negative eigenvalue keeps it in its factor's signs,
    # so the factor reproduces the Gram, and the closure's twists carry the sign
    inst, fam = _indefinite_gram_family(1)
    ctx = fam.context(inst)
    G, fac = ctx.seed_grams[0], ctx.factors[0]
    assert (fac.signs < 0).any() and (fac.signs > 0).any()
    recon = fac.F.conj().T @ (fac.signs[:, None] * fac.F)
    assert np.abs(recon - G).max() <= 1e-14 * np.linalg.norm(G, 2)
    assert len(ctx.closure[0]) > 1
    assert min(np.linalg.eigvalsh(G).min() for G in ctx.closure[1]) < 0


def test_r1_reads_only_the_parts_that_could_hold_the_maximum():
    # _degeneracy_rows solves only the parts whose Frobenius norm reaches the
    # largest row norm among a probe's parts, and every part of a probe whose
    # squares could underflow or overflow; r1 must be the maximum over every
    # part's eigenvalues, bit for bit
    from qstarlab.forms import _degeneracy_rows, _right_mults
    from qstarlab.probes import random_probes
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=2) + make_corpus(count=3, seed=8, n_min=4, n_max=8)
    m2 = load_bundle("m2_diag")["instance"]
    pairs.append((m2, FormFamily([IpsForm("vector_state", np.zeros((2, 2)), label="z")], True, 1)))
    for name, key in (("m2_full", "trace"), ("m3_pattern", "good")):
        b = load_bundle(name)
        fam = b["families"][key]
        pairs += [(b["instance"], FormFamily([IpsForm(phi.kind, c * phi.payload, phi.label)
                                              for phi in fam.seeds], True, 1, fam.label))
                  for c in (1e-200, 1e-150, 1e150, 1e200)]
    rows = 0
    for inst, fam in pairs:
        rep = check_sufficiency(fam, inst)
        probes = [inst.unit, *(inst.basis_element(i) for i in range(inst.dim)),
                  *random_probes(inst, 3)]
        if rep.witness_coeffs is not None:
            probes.append(inst.element(rep.witness_coeffs))
        C = np.array([p.coeffs for p in probes])
        _, grams, _ = fam.context(inst).closure
        G = np.array(grams, dtype=complex).reshape(-1, inst.dim, inst.dim)
        AX = (_right_mults(inst, DEFAULT_TOL) @ C.T).transpose(2, 1, 0)
        Q = (G[:, None] @ AX)[:, :, list(inst.a0_indices), :]
        QH = Q.conj().swapaxes(-1, -2)
        parts = np.linalg.eigvalsh(np.stack([(Q + QH) / 2.0, (Q - QH) * -0.5j]))
        ref = np.abs(parts).max(axis=(0, 1, 3), initial=0.0)
        assert _degeneracy_rows(C, fam, inst, DEFAULT_TOL)[:, 0].tobytes() == ref.tobytes()
        rows += len(C)
    assert rows > 250


def test_intake_lapack_calls_stay_bounded(monkeypatch):
    # validate_family, check_sufficiency and radical on a fresh n = 8 pair:
    # each seed is decomposed once, r1 solves 6 of its 72 Hermitian parts in
    # one call, and a tall null basis is a QR then a square SVD.  A later
    # per-seed eigh or an unfiltered eigen-solve raises a count
    from qstarlab import radical
    inst, fam = make_corpus(count=1, seed=8, n_min=8, n_max=8)[0]
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            counts[name + " solves"] = counts.get(name + " solves", 0) + \
                int(np.prod(np.shape(args[0])[:-2]))
            return fn(*args, **kwargs)
        return counted
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        counted = counting(name, getattr(np.linalg, name))
        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            monkeypatch.setattr(module, name, counted)
    bounds = {
        validate_family: {"eigh": 3, "eigh solves": 3, "eigvalsh": 2, "eigvalsh solves": 9,
                          "svd": 9, "svd solves": 9},
        check_sufficiency: {"eigh": 1, "eigh solves": 1, "eigvalsh": 1, "eigvalsh solves": 6},
        radical: {"svd": 4, "svd solves": 4, "qr": 2, "qr solves": 2},
    }
    for fn, bound in bounds.items():
        counts.clear()
        fn(fam, inst)
        assert set(counts) <= set(bound), (fn.__name__, counts)
        assert all(counts[k] <= bound[k] for k in counts), (fn.__name__, counts)


def test_intake_stages_hold_at_most_a_mebibyte_of_temporaries():
    # the working-set rule on an n = 8 pair (d = 50, n0 = 30): each stage's
    # traced peak above its start, less what the stage keeps (the table, the
    # closure and its directions), stays within 1 MiB.  Whole product stacks
    # and their residual copies took 2.2 to 4.7 MB here
    import tracemalloc
    from qstarlab import radical, validate_structure

    def stages(inst, fam):
        return {"right products": lambda: inst.right_mult_table,
                "structure": lambda: validate_structure(inst),
                "closure": lambda: fam.forms(inst),
                "family": lambda: validate_family(fam, inst),
                "sufficiency": lambda: check_sufficiency(fam, inst),
                "radical": lambda: radical(fam, inst)}
    tracemalloc.start()
    try:
        # numpy's first calls allocate caches of their own
        for run in stages(*make_corpus(count=1, seed=9, n_min=8, n_max=8)[0]).values():
            run()
        held = {}
        for name, run in stages(*make_corpus(count=1, seed=8, n_min=8, n_max=8)[0]).items():
            tracemalloc.reset_peak()
            kept = run()
            now, peak = tracemalloc.get_traced_memory()
            held[name] = peak - now
            del kept
    finally:
        tracemalloc.stop()
    assert all(v <= 1 << 20 for v in held.values()), held


def test_closure_directions_are_the_normalized_member_grams():
    # the closure keeps its stack of unit Grams with each one's squared
    # Frobenius norm; both must be what a stack formed afresh gives, to the
    # bit, so that every _classify decision keeps its bits
    from qstarlab.forms import _unit_norms
    pairs = [(b["instance"], fam) for b in map(load_bundle, BUNDLES) for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=8, n_min=4, n_max=8)
    for inst, fam in pairs:
        for balanced in (True, False):
            ctx = FormFamily(fam.seeds, balanced, fam.twist_depth, fam.label).context(inst)
            _, grams, norms = ctx.closure
            units, kk = ctx.directions
            ref = np.reshape([G / gn for G, gn in zip(grams, norms) if gn > 0], (-1, inst.dim, inst.dim))
            assert units.tobytes() == ref.tobytes()
            assert kk.tobytes() == _unit_norms(ref).tobytes()
            K = ref.reshape(len(ref), -1).view(float)
            assert kk.tobytes() == np.einsum("ij,ij->i", K, K).tobytes()
            assert ctx.nonzero[1] is units


def test_stability_check_reads_the_products_of_the_invariance_residual(monkeypatch):
    # validate_family forms each untwisted member's products F R0 once, for
    # its invariance residual, and hands them to its twists
    from qstarlab import forms
    make, handed = forms._factor_twister, []

    def spying(R):
        twists = make(R)

        def spied(fac, floor, P=None):
            handed.append(P is not None and P.tobytes() == (fac.F @ R).tobytes())
            return twists(fac, floor, P)
        return spied
    inst, fam = make_corpus(count=1, seed=8, n_min=8, n_max=8)[0]
    fam.context(inst).closure
    monkeypatch.setattr(forms, "_factor_twister", spying)
    validate_family(fam, inst)
    assert len(handed) == len(fam.context(inst).untwisted) and all(handed)


def test_hermitian_part_leaves_its_argument_alone():
    # built in a fresh buffer even when the transposed argument is already
    # contiguous: a 1 x 1 stack, or the transpose of a C-ordered matrix
    from qstarlab.forms import _hermitian_part
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for T in (X[None, :1, :1].copy(), X.T, X, np.stack([X, X.T])):
        before = T.copy()
        H = _hermitian_part(T)
        assert np.array_equal(T, before)
        assert np.array_equal(H, (before + before.conj().swapaxes(-1, -2)) / 2.0)
