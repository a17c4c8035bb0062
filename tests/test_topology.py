"""Seminorms, topology comparison, and the candidate qualification harness."""

import gc
import weakref

import numpy as np
import pytest

from qstarlab import (BoundedFormSet, FormFamily, compare_topologies,
                      ga_star_check, gamma, left_mult_bound, load_bundle,
                      module_product, p_lower, p_star, p_upper, seminorm_eval,
                      twisted_set, weak_product)


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
def F(good, m2):
    return BoundedFormSet.from_family(good, m2)


def _rand_elem(alg, seed):
    rng = np.random.default_rng(seed)
    return alg.element(rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim))


def test_lower_controlled_by_upper(F, m2):
    g = gamma(F, m2)
    for seed in range(8):
        a = _rand_elem(m2, seed)
        assert p_lower(F, a) <= g * p_upper(F, a) + 1e-10


def test_lower_is_star_invariant(F, m2):
    for seed in range(8):
        a = _rand_elem(m2, 100 + seed)
        assert p_lower(F, a.star()) == pytest.approx(p_lower(F, a), abs=1e-10)


def test_star_seminorm_symmetry(F, m2):
    a = _rand_elem(m2, 3)
    assert p_star(F, a) == pytest.approx(p_star(F, a.star()), abs=1e-10)


def test_twist_identity(F, m2):
    # evaluating after right multiplication equals evaluating the twisted set
    x = m2.a0_basis_element(1)
    Fx = twisted_set(F, x)
    assert Fx.label.endswith("^tw")
    for seed in range(6):
        a = _rand_elem(m2, 200 + seed)
        ax = module_product(x, a, side="right")
        assert p_upper(F, ax) == pytest.approx(p_upper(Fx, a), abs=1e-10)


def test_lower_of_square_is_upper_squared(F, good, m2):
    # phi(a* o a, e) = phi(a, a) via invariance, so the seminorms nest
    for seed in range(5):
        a = _rand_elem(m2, 300 + seed)
        sq, _ = weak_product(a.star(), a, good, m2)
        assert p_lower(F, sq) == pytest.approx(p_upper(F, a) ** 2, rel=1e-7)


def test_seminorm_kind_aliases(F, m2):
    a = _rand_elem(m2, 4)
    assert seminorm_eval(F, a, "weak") == p_lower(F, a)
    assert seminorm_eval(F, a, "strong") == p_upper(F, a)
    assert seminorm_eval(F, a, "strong-star") == p_star(F, a)
    with pytest.raises(ValueError):
        seminorm_eval(F, a, "norm")


def test_left_mult_bounds(good, m2):
    assert left_mult_bound(good, m2.unit, m2) == pytest.approx(1.0, abs=1e-9)
    # the second diagonal unit pushes mass into the null space of the
    # rank-one seed, so no finite constant works
    assert left_mult_bound(good, m2.basis_element(3), m2) == float("inf")


def test_left_mult_bound_certificate():
    # on a full-rank member the constant is finite and really certifies
    # the seminorm inequality; the closed family also contains twisted
    # rank-deficient members whose leak makes the uniform constant blow up
    full = load_bundle("m2_full")
    inst = full["instance"]
    trace = FormFamily([full["families"]["trace"].seeds[0]])
    Ftr = BoundedFormSet.from_family(trace, inst)
    for j in range(inst.a0_dim):
        x = inst.a0_basis_element(j)
        c = left_mult_bound(trace, x, inst)
        assert np.isfinite(c)
        for seed in range(5):
            a = _rand_elem(inst, 400 + seed)
            ax = module_product(x, a, side="right")
            assert p_upper(Ftr, ax) <= c * p_upper(Ftr, a) + 1e-9


def test_topology_command_builds_each_gram_once(monkeypatch, capsys):
    # the multiplication bounds read the closure's Grams and sections from
    # the family context, so only the closure itself builds Grams
    from qstarlab import IpsForm, cli
    calls = []
    gram = IpsForm.gram
    monkeypatch.setattr(IpsForm, "gram", lambda *a: calls.append(1) or gram(*a))
    assert cli.main(["topology", "bundled:m3_pattern", "--family", "good"]) == 0
    assert '"subalgebra_mult_bounds"' in capsys.readouterr().out
    assert len(calls) == 4


def test_compare_topologies_weak_vs_strong(F, m2):
    # a trace-free off-diagonal direction is invisible to the weak
    # seminorm, so the strong one cannot be dominated
    probes = [m2.basis_element(i) for i in range(m2.dim)]
    probes.append(m2.basis_element(1) - m2.basis_element(2))
    out = compare_topologies(F, "weak", F, "strong", probes)
    assert out["relation"] == "first-dominated-by-second"
    assert np.isfinite(out["constant_first_over_second"])
    assert out["constant_second_over_first"] == float("inf")
    assert out["empirical"]


def test_compare_topologies_self_equivalent(F, m2):
    probes = [_rand_elem(m2, 500 + s) for s in range(6)]
    out = compare_topologies(F, "strong", F, "strong", probes)
    assert out["relation"] == "equivalent-on-probes"
    assert out["constant_first_over_second"] == pytest.approx(1.0)


# -- candidate qualification ----------------------------------------------

VERDICTS = [
    ("m2_diag", "good", True),
    ("m2_diag", "bad", False),
    ("m2_full", "trace", True),
    ("m2_full", "rank1", True),
    ("m3_pattern", "good", False),
    ("m2_flip", "amb", False),
]


@pytest.mark.parametrize("bundle,family,expect", VERDICTS)
def test_ga_star_verdicts(bundle, family, expect):
    b = load_bundle(bundle)
    rep = ga_star_check(b["families"][family], b["instance"])
    assert rep.verdict is expect


def test_ga_star_failure_modes():
    diag = load_bundle("m2_diag")
    rep = ga_star_check(diag["families"]["bad"], diag["instance"])
    failed = {c.name for c in rep.conditions if not c.passed}
    assert "separates-points" in failed

    m3 = load_bundle("m3_pattern")
    rep3 = ga_star_check(m3["families"]["good"], m3["instance"])
    failed3 = {c.name for c in rep3.conditions if not c.passed}
    assert failed3 == {"products-stay-representable"}


def test_ga_star_consequences_hold(diag):
    rep = ga_star_check(diag["families"]["good"], diag["instance"])
    assert rep.verdict
    assert {c.name for c in rep.consequences} == {
        "pairing-bounded-by-star-seminorms", "vector-bound-for-twisted-sets",
        "bounded-part-norm-laws"}
    assert all(c.passed for c in rep.consequences)


def test_ga_star_deterministic(diag):
    a = ga_star_check(diag["families"]["good"], diag["instance"]).as_dict()
    b = ga_star_check(diag["families"]["good"], diag["instance"]).as_dict()
    assert a == b


def test_no_reference_cycles_keep_an_instance_alive():
    gc.disable()
    try:
        bundle = load_bundle("m2_diag")
        inst, fam = bundle["instance"], bundle["families"]["good"]
        assert ga_star_check(fam, inst).verdict
        ref = weakref.ref(inst)
        del bundle, inst, fam
        assert ref() is None
    finally:
        gc.enable()
