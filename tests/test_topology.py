"""Seminorms, topology comparison, and the candidate qualification harness."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from corpus import make_corpus

from qstarlab import (BoundedFormSet, FormFamily, NotInA0, compare_topologies,
                      ga_star_check, gamma, left_mult_bound, load_bundle,
                      module_product, p_lower, p_star, p_upper, seminorm_eval,
                      seminorms, twisted_set, weak_product)
from qstarlab.topology import SEMINORM_KINDS


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


def test_seminorms_of_a_non_finite_row_are_nan_without_warnings(F, m2):
    # the adjoint of a row with an infinite part is a NaN row, so the star
    # kind reads NaN there as the other kinds do, with no inf * 0 taken
    C = np.array([[np.inf, 1.0, 0.0, 0.0], [1.0, 2.0, 3.0j, 4.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in SEMINORM_KINDS:
            vals = seminorms(F, m2, C, kind)
            assert np.isnan(vals[0]) and np.isfinite(vals[1]), kind
            assert vals[1] == pytest.approx(seminorms(F, m2, C[1:], kind)[0], rel=1e-14), kind


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


def test_left_mult_bound_rejects_elements_outside_a0():
    # a.x for these x leaves the span, so no multiplication bound exists
    bundle = load_bundle("m3_pattern")
    inst, fam = bundle["instance"], bundle["families"]["good"]
    for k in (3, 4):
        x = inst.basis_element(k)
        assert not x.in_a0()[0]
        with pytest.raises(NotInA0):
            left_mult_bound(fam, x, inst)


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
    # the closure twists Gram matrices and the multiplication bounds read
    # them from the family context, so only the one seed's Gram is built
    from qstarlab import IpsForm, cli
    calls = []
    gram = IpsForm.gram
    monkeypatch.setattr(IpsForm, "gram", lambda *a: calls.append(1) or gram(*a))
    assert cli.main(["topology", "bundled:m3_pattern", "--family", "good"]) == 0
    assert '"subalgebra_mult_bounds"' in capsys.readouterr().out
    assert len(calls) == 1


def test_ga_star_check_lapack_calls_do_not_grow_with_the_probes(monkeypatch):
    # every norm, seminorm and weak product of the check runs as one stack,
    # so a single probe and the default 2 * dim probes take the same calls
    counts = {"svd": 0, "eigvalsh": 0, "lstsq": 0}
    for name in counts:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            monkeypatch.setattr(module, name, counted)

    def calls(n_probes):
        inst, fam = make_corpus(count=3, seed=3, n_min=6, n_max=6)[2]
        probes = None if n_probes is None else [inst.basis_element(i) for i in range(n_probes)]
        counts.update(svd=0, eigvalsh=0, lstsq=0)
        assert ga_star_check(fam, inst, probes=probes).verdict
        return dict(counts)

    one, default = calls(1), calls(None)
    assert one == default
    # a per-element loop takes at least one SVD per norm, ~90 on this pair;
    # the condition product solves from an SVD, and a leak certified by its
    # Frobenius norm takes no eigvalsh (6 while every leak took one)
    assert default["svd"] <= 12 and default["eigvalsh"] <= 4, default
    assert default["lstsq"] == 0, default


def test_ga_star_check_decomposes_each_seed_gram_once(monkeypatch):
    # the seed Grams and their sections come from the family context: the
    # representation takes its pseudo-inverse from a section, and the
    # vector bound twists the seed Gram it was built from
    from qstarlab import IpsForm
    inst, fam = make_corpus(count=3, seed=3, n_min=6, n_max=6)[2]
    counts = dict.fromkeys(("gram", "svd", "eigh", "eigvalsh", "pinv", "lstsq"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(IpsForm, "gram", counting("gram", IpsForm.gram))
    for name in ("svd", "eigh", "eigvalsh", "pinv", "lstsq"):
        counted = counting(name, getattr(np.linalg, name))
        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            monkeypatch.setattr(module, name, counted)
    assert ga_star_check(fam, inst).verdict
    assert counts["gram"] == len(fam.seeds)
    assert counts["pinv"] == counts["lstsq"] == 0
    # 35 when the representation decomposed each seed Gram afresh, 20 with an
    # eigvalsh for every leak and an lstsq for the condition product
    assert counts["svd"] + counts["eigh"] + counts["eigvalsh"] <= 19, counts


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


def test_ga_star_check_meets_an_infinite_probe_without_numpy_warnings():
    # under the suite's error::RuntimeWarning a warning fails the test: the
    # pairing and vector-bound products take such a probe as zero, and the
    # norm routes then raise the typed error a NaN probe gets
    from qstarlab import CharacterizationMismatch
    b = load_bundle("m2_diag")
    inst, fam = b["instance"], b["families"]["good"]
    for probe in ([np.inf, 0, 0, 0], [np.inf, 1, 0, 0], [0, complex(1.0, -np.inf), 0, 0]):
        probes = [inst.element(np.array(probe, dtype=complex)), inst.basis_element(1)]
        with pytest.raises(CharacterizationMismatch):
            ga_star_check(fam, inst, probes=probes)


def test_ga_star_check_skipped_products_per_bundle_family():
    # how many bounded-part products the norm laws leave unchecked, for every
    # bundle family at depths 0-2 (None: the check is not reached).  These
    # counts follow the closure members' Grams to the bit, so a change in how
    # a member's Gram is formed shows here first
    from qstarlab.bundled import bundle_names
    want = {("lp_k2_p4", "points"): (0, 0, 0), ("m2_diag", "good"): (None, 0, 0),
            ("m2_diag", "bad"): (None, None, None), ("m2_flip", "amb"): (None, None, None),
            ("m2_full", "trace"): (8, 8, 8), ("m2_full", "rank1"): (None, 8, 8),
            ("m3_pattern", "good"): (None, None, None)}
    got = {}
    for name in bundle_names():
        b = load_bundle(name)
        for key, fam in b["families"].items():
            counts = []
            for depth in (0, 1, 2):
                report = ga_star_check(FormFamily(fam.seeds, fam.balanced, depth, fam.label),
                                       b["instance"]).as_dict()
                laws = [c for c in report["consequences"] if c["name"] == "bounded-part-norm-laws"]
                counts.append(laws[0]["data"]["skipped_products"] if laws else None)
            got[name, key] = tuple(counts)
    assert got == want
