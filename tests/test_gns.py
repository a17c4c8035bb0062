"""Representation layer: coordinates, action matrices, reconstruction."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, IpsForm, NotIps, ZeroForm, build_gns, form_equal,
                      is_dense, load_bundle, reconstruction_defect, twist)
from qstarlab.algebra import blocks
from qstarlab.bundled import bundle_names
from qstarlab.forms import quotient_section


@pytest.fixture(scope="module")
def m2():
    return load_bundle("m2_diag")["instance"]


@pytest.fixture(scope="module")
def phi(m2):
    return load_bundle("m2_diag")["families"]["good"].seeds[0]


@pytest.fixture(scope="module")
def m2full():
    return load_bundle("m2_full")


def _rand_elem(alg, seed):
    rng = np.random.default_rng(seed)
    return alg.element(rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim))


def test_dimensions_and_residuals(m2, phi):
    rep = build_gns(phi, m2)
    assert rep.dim_H == 2
    assert rep.residual_lambda <= 1e-12
    assert rep.residual_rep <= 1e-12
    # lam and the quotient section are mutually inverse on the coordinates
    ix = np.asarray(m2.a0_indices)
    sec = quotient_section(phi.gram(m2)[np.ix_(ix, ix)], DEFAULT_TOL.rank)
    assert np.allclose(rep.lam @ sec.section, np.eye(rep.dim_H))


def test_reconstruction_is_exact(m2, phi):
    assert reconstruction_defect(build_gns(phi, m2)) <= 1e-12


def test_inner_product_reproduces_form(m2, phi):
    rep = build_gns(phi, m2)
    for sa in range(4):
        for sb in range(4):
            a, b = _rand_elem(m2, 20 + sa), _rand_elem(m2, 40 + sb)
            lhs = complex(rep.lambda_vec(b).conj() @ rep.lambda_vec(a))
            assert abs(lhs - phi.eval(a, b)) < 1e-9


def test_action_on_cyclic_vector(m2, phi):
    rep = build_gns(phi, m2)
    a = _rand_elem(m2, 5)
    assert np.allclose(rep.rep_matrix(a) @ rep.cyclic, rep.lambda_vec(a),
                       atol=1e-10)


def test_star_representation(m2, phi):
    # the action is a *-homomorphism: adjoints map to adjoints
    rep = build_gns(phi, m2)
    for seed in range(6):
        a = _rand_elem(m2, 60 + seed)
        assert np.allclose(rep.rep_matrix(a.star()),
                           rep.rep_matrix(a).conj().T, atol=1e-9)


def test_multiplicativity_on_subalgebra(m2, phi):
    rep = build_gns(phi, m2)
    rng = np.random.default_rng(77)
    for _ in range(4):
        cx = rng.normal(size=m2.a0_dim) + 1j * rng.normal(size=m2.a0_dim)
        cy = rng.normal(size=m2.a0_dim) + 1j * rng.normal(size=m2.a0_dim)
        x = sum((m2.a0_basis_element(j) * cx[j] for j in range(m2.a0_dim)),
                start=m2.unit * 0.0)
        y = sum((m2.a0_basis_element(j) * cy[j] for j in range(m2.a0_dim)),
                start=m2.unit * 0.0)
        xy = m2.element_from_matrix(x.matrix @ y.matrix)
        assert np.allclose(rep.rep_matrix(xy),
                           rep.rep_matrix(x) @ rep.rep_matrix(y), atol=1e-9)


def test_unit_acts_as_identity(m2, phi):
    rep = build_gns(phi, m2)
    assert np.allclose(rep.rep_matrix(m2.unit), np.eye(rep.dim_H), atol=1e-10)
    assert abs(rep.rep_norm(m2.unit) - 1.0) < 1e-10


def test_vector_form_with_shifted_vector_twists(m2, phi):
    # replacing the cyclic vector by the class of x reconstructs the twist
    rep = build_gns(phi, m2)
    x = m2.a0_basis_element(1)
    xi = rep.lambda_vec(x)
    recon = rep.vector_form(xi)
    assert form_equal(recon, twist(phi, x), m2)


def test_zero_form_rejected(m2):
    with pytest.raises(ZeroForm):
        build_gns(IpsForm("vector_state", np.zeros((2, 2))), m2)


def test_non_dense_form_rejected(m2):
    halftrace = IpsForm("vector_state", np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(NotIps):
        build_gns(halftrace, m2)


def test_full_matrix_reps_are_faithful(m2full):
    # the trace sees the whole algebra, the rank one state only a slice of it
    expect_dim = {"trace": 4, "rank1": 2}
    inst = m2full["instance"]
    for key, fam in m2full["families"].items():
        for phi in fam.seeds:
            rep = build_gns(phi, inst)
            assert rep.dim_H == expect_dim[key]
            assert reconstruction_defect(rep) <= 1e-12
            # a nonzero element never acts as zero when the rep is faithful
            for i in range(inst.dim):
                assert rep.rep_norm(inst.basis_element(i)) > 0.1


def test_rep_mats_is_one_read_only_array(m2, phi):
    rep = build_gns(phi, m2)
    assert isinstance(rep.rep_mats, np.ndarray)
    assert rep.rep_mats.shape == (m2.dim, rep.dim_H, rep.dim_H)
    assert not rep.rep_mats.flags.writeable
    # a coefficient stack acts row by row, and its norms come in one call
    C = np.array([_rand_elem(m2, 60 + s).coeffs for s in range(3)])
    for c, P, nrm in zip(C, rep.rep_matrix(C), rep.rep_norm(C)):
        assert np.allclose(P, sum(ci * Pi for ci, Pi in zip(c, rep.rep_mats)), atol=1e-12)
        assert nrm == pytest.approx(rep.rep_norm(m2.element(c)), rel=1e-12)


def test_rep_norm_is_operator_norm(m2, phi):
    rep = build_gns(phi, m2)
    a = m2.basis_element(1)
    assert rep.rep_norm(a) == float(np.linalg.norm(rep.rep_matrix(a), 2))


def test_residuals_do_not_move_with_the_form_scale():
    # under phi -> 2^k phi the pairings scale by 2^k and the coordinates by
    # 2^(k/2), and each residual is relative to the matching power of |G|_2
    for bundle, name in (("m2_full", "trace"), ("m3_pattern", "good"), ("m2_diag", "good")):
        b = load_bundle(bundle)
        inst, fam = b["instance"], b["families"][name]
        for phi in fam.context(inst).dense_seeds:
            ref = build_gns(phi, inst)
            for k in (-400, -60, 60, 400):
                rep = build_gns(IpsForm(phi.kind, 2.0 ** k * phi.payload, phi.label), inst)
                got = (rep.residual_lambda, rep.residual_rep)
                assert got == (ref.residual_lambda, ref.residual_rep), (bundle, k)
                assert all(type(v) is float for v in got), (bundle, k)


def test_context_reps_match_build_gns():
    # the family context and build_gns run one construction on the same Gram
    pairs = [(b["instance"], fam) for b in map(load_bundle, ("m2_diag", "m2_full", "lp_k2_p4"))
             for fam in b["families"].values()]
    pairs += make_corpus(count=4, seed=9)
    for inst, fam in pairs:
        ctx = fam.context(inst)
        assert ctx.dense_seeds == tuple(phi for phi in fam.seeds if is_dense(phi, inst))
        if not ctx.dense_seeds:
            with pytest.raises(NotIps):
                ctx.reps
            continue
        assert len(ctx.reps) == len(ctx.dense_seeds)
        for phi, rep in zip(ctx.dense_seeds, ctx.reps):
            ref = build_gns(phi, inst)
            assert rep.form is phi and rep.dim_H == ref.dim_H
            for key in ("gram", "lam", "rep_mats", "cyclic"):
                assert np.array_equal(getattr(rep, key), getattr(ref, key)), key
            assert (rep.residual_lambda, rep.residual_rep) == \
                (ref.residual_lambda, ref.residual_rep)


def test_representation_is_the_stacked_product_bit_for_bit():
    # represent forms the pairings G[ix, :] R0 in blocks of whole x_k; the
    # coordinates and action matrices must keep the bits of the one stacked
    # product, which the radical's kernels and every rep norm read
    pairs = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values()]
    for n, count in ((4, 3), (6, 3), (8, 3)):
        pairs += make_corpus(count=count, seed=0x6A5 + n, n_min=n, n_max=n)
    blocked = 0
    for inst, fam in pairs:
        ctx = fam.context(inst)
        if not ctx.dense_seeds:
            continue
        ix, R0 = np.asarray(inst.a0_indices), inst.right_mult_table[0]
        secs = [sec for phi, (_, sec) in zip(ctx.seeds, ctx.sections) if phi in ctx.dense_seeds]
        for rep, sec in zip(ctx.reps, secs, strict=True):
            coords = sec.section.conj().T @ (rep.gram[ix, :] @ R0)
            assert rep.rep_mats.tobytes() == (coords.transpose(2, 1, 0) @ sec.section).tobytes()
            blocked += len(blocks(len(ix), rep.gram[ix, :].nbytes)) > 1
    assert blocked >= 3


def test_gns_command_reads_the_family_context(monkeypatch, capsys):
    # the seed's Gram and representation come from the family context,
    # and the reconstruction defect measures that representation
    from qstarlab import cli, gns
    builds, grams = [], []
    build, gram = gns.represent, IpsForm.gram
    monkeypatch.setattr(gns, "represent", lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(IpsForm, "gram", lambda *a: grams.append(1) or gram(*a))
    assert cli.main(["gns", "bundled:m2_full", "--family", "trace"]) == 0
    assert '"reconstruction_defect"' in capsys.readouterr().out
    assert len(builds) == 1
    assert len(grams) < 5
