"""Acceptance gate: eleven numbered criteria, one verdict line each.

Each test prints ``criterion NN [PASS|FAIL] name -- detail`` before
asserting, so a plain ``pytest -v`` gives one line per criterion and
``-s`` additionally shows the measured margins.  The random corpus comes
from :mod:`corpus` with fixed seeds; every quantity here is deterministic.
"""

import time

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (BoundedFormSet, build_gns, cone_intersection_null,
                      cone_membership, ga_star_check, gamma, hermitian_parts,
                      holder_sup, is_dense, load_bundle, lp_bounded_norm,
                      m_bounded_norm, module_product, p_lower, p_star, p_upper,
                      radical, reconstruction_defect, standard_probes,
                      twisted_set, weak_product, weight_ascent_oracle)
from qstarlab.errors import AmbiguousProduct, NotWellDefined

RNG_SEED = 0xACCE97


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name} -- {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(count=10)


@pytest.fixture(scope="module")
def diag():
    return load_bundle("m2_diag")


def _random_elements(inst, rng, count, hermitian_half=True):
    out = []
    for k in range(count):
        c = rng.standard_normal(inst.dim) + 1j * rng.standard_normal(inst.dim)
        a = inst.element(c)
        if hermitian_half and k % 2 == 1:
            h = hermitian_parts(a)[0]
            if np.linalg.norm(h.coeffs) > 1e-9:
                a = h
        out.append(a)
    return out


def _random_a0(inst, rng):
    c0 = rng.standard_normal(inst.a0_dim) + 1j * rng.standard_normal(inst.a0_dim)
    full = np.zeros(inst.dim, dtype=complex)
    for slot, cc in zip(inst.a0_indices, c0):
        full[slot] = cc
    return inst.element(full)


def test_criterion_01_gns_reconstruction():
    started = time.perf_counter()
    pairs = make_corpus(count=20, seed=0x51, n_min=2, n_max=6)
    n_pairs = 0
    worst = 0.0
    for inst, fam in pairs:
        for phi in fam.forms(inst):
            if not is_dense(phi, inst):
                continue
            n_pairs += 1
            worst = max(worst, reconstruction_defect(build_gns(phi, inst)))
    elapsed = time.perf_counter() - started
    ok = n_pairs >= 50 and worst <= 1e-9 and elapsed < 5.0
    _verdict(1, "gns-reconstruction",
             ok, f"{n_pairs} pairs, max relative defect {worst:.2e} "
                 f"(bound 1e-9), {elapsed:.2f}s")


def test_criterion_02_norm_route_equivalence(corpus):
    rng = np.random.default_rng(RNG_SEED)
    n_elems = 0
    n_quad = 0
    worst = 0.0
    verdicts_agree = True
    for inst, fam in corpus:
        for a in _random_elements(inst, rng, 20):
            rep = m_bounded_norm(a, fam, inst)
            vals = [rep.routes["pencil"], rep.routes["gns"]]
            if "quadratic" in rep.routes:
                vals.append(rep.routes["quadratic"])
                n_quad += 1
            finite = [np.isfinite(v) for v in vals]
            verdicts_agree = verdicts_agree and len(set(finite)) == 1
            if all(finite):
                scale = max(max(vals), 1e-300)
                worst = max(worst, (max(vals) - min(vals)) / scale)
            n_elems += 1
    ok = (n_elems >= 200 and len(corpus) >= 10 and n_quad >= 50
          and worst <= 1e-8 and verdicts_agree)
    _verdict(2, "norm-route-equivalence",
             ok, f"{n_elems} elements / {len(corpus)} instances, "
                 f"{n_quad} with a quadratic route, worst pairwise "
                 f"relative gap {worst:.2e} (bound 1e-8), verdicts agree: "
                 f"{verdicts_agree}")


def test_criterion_03_sup_forms_equals_sup_reps(corpus):
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    n_elems = 0
    for inst, fam in corpus:
        for a in _random_elements(inst, rng, 20, hermitian_half=False):
            rep = m_bounded_norm(a, fam, inst)
            f, g = rep.routes["pencil"], rep.routes["gns"]
            worst = max(worst, abs(f - g) / max(f, g, 1e-300))
            n_elems += 1
    ok = worst <= 1e-8
    _verdict(3, "sup-forms-equals-sup-reps",
             ok, f"{n_elems} elements, worst relative gap {worst:.2e} "
                 f"(bound 1e-8)")


def test_criterion_04_cstar_identity(corpus):
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    resolved = 0
    attempted = 0
    for inst, fam in corpus:
        for a in _random_elements(inst, rng, 8, hermitian_half=False):
            attempted += 1
            try:
                sq, _ = weak_product(a.star(), a, fam, inst)
            except (AmbiguousProduct, NotWellDefined):
                continue
            resolved += 1
            na = m_bounded_norm(a, fam, inst).value
            nsq = m_bounded_norm(sq, fam, inst).value
            worst = max(worst, abs(nsq - na ** 2) / max(na ** 2, 1e-300))
    ok = resolved >= 20 and worst <= 1e-7
    _verdict(4, "cstar-identity",
             ok, f"{resolved}/{attempted} products resolved, worst "
                 f"relative defect {worst:.2e} (bound 1e-7)")


def test_criterion_05_sufficiency_both_directions(diag):
    inst = diag["instance"]
    good, bad = diag["families"]["good"], diag["families"]["bad"]

    null = cone_intersection_null(good, inst)
    suff_good = good.sufficiency(inst)
    forward = (null["dim"] == 0 and null["matches_sufficiency"]
               and suff_good.sufficient)

    suff_bad = bad.sufficiency(inst)
    witness_ok = False
    max_pair = float("inf")
    if not suff_bad.sufficient and suff_bad.witness_coeffs is not None:
        w = inst.element(np.asarray(suff_bad.witness_coeffs, dtype=complex))
        pairings = [abs(phi.eval(w, w).real) for phi in bad.forms(inst)]
        max_pair = max(pairings, default=float("inf"))
        witness_ok = w.norm_frobenius() > 1e-6 and max_pair <= 1e-10

    ok = forward and witness_ok
    _verdict(5, "sufficiency-both-directions",
             ok, f"sufficient family: null dim {null['dim']}; degenerate "
                 f"family: witness pairing max {max_pair:.2e} (bound 1e-10)")


def test_criterion_06_cone_soundness(corpus):
    rng = np.random.default_rng(RNG_SEED + 3)
    worst_herm = 0.0
    min_eig = 0.0
    n_members = 0
    for inst, fam in corpus[:6]:
        members = [inst.unit]
        for _ in range(4):
            x = _random_a0(inst, rng)
            members.append(module_product(x.star(), x, side="left"))
        squares = members[1:]
        members.append(inst.element(sum(0.5 * s.coeffs for s in squares)))
        for a in members:
            rep = cone_membership(a, fam, inst)
            assert rep.member
            nf = max(a.norm_frobenius(), 1e-300)
            worst_herm = max(worst_herm, float(
                np.linalg.norm(a.matrix - a.matrix.conj().T)) / nf)
            for phi in fam.dense_forms(inst):
                P = build_gns(phi, inst).rep_matrix(a)
                H = (P + P.conj().T) / 2.0
                min_eig = min(min_eig, float(np.linalg.eigvalsh(H).min()))
            n_members += 1
    ok = worst_herm <= 1e-9 and min_eig >= -1e-8
    _verdict(6, "cone-soundness",
             ok, f"{n_members} members, worst hermitian defect "
                 f"{worst_herm:.2e} (bound 1e-9), min representation "
                 f"eigenvalue {min_eig:.2e} (bound -1e-8)")


def test_criterion_07_rep_norm_bounded_by_family_norm(corpus):
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = -float("inf")
    n_pairs = 0
    for inst, fam in corpus:
        for a in _random_elements(inst, rng, 10):
            value = m_bounded_norm(a, fam, inst).value
            for phi in fam.dense_forms(inst):
                excess = build_gns(phi, inst).rep_norm(a) - value
                worst = max(worst, excess)
                n_pairs += 1
    ok = worst <= 1e-8
    _verdict(7, "rep-norm-below-family-norm",
             ok, f"{n_pairs} (form, element) pairs, worst excess "
                 f"{worst:.2e} (bound 1e-8)")


def test_criterion_08_seminorm_laws(corpus, diag):
    sets = [(diag["instance"],
             BoundedFormSet.from_family(diag["families"]["good"],
                                        diag["instance"]),
             diag["families"]["good"])]
    for inst, fam in corpus[:4]:
        sets.append((inst, BoundedFormSet.from_family(fam, inst), fam))

    worst_gamma = -float("inf")
    worst_star = 0.0
    worst_twist = 0.0
    worst_square = 0.0
    n_probes = 0
    rng = np.random.default_rng(RNG_SEED + 5)
    for inst, F, fam in sets:
        g = gamma(F, inst)
        probes = standard_probes(inst, count=8)
        x = _random_a0(inst, rng)
        Fx = twisted_set(F, x)
        for a in probes:
            up, low = p_upper(F, a), p_lower(F, a)
            worst_gamma = max(worst_gamma, low - g * up)
            scale = max(low, 1.0)
            worst_star = max(worst_star, abs(p_lower(F, a.star()) - low) / scale)
            ax = module_product(x, a, side="right")
            worst_twist = max(worst_twist,
                              abs(p_upper(F, ax) - p_upper(Fx, a)))
            try:
                sq, _ = weak_product(a.star(), a, fam, inst)
            except (AmbiguousProduct, NotWellDefined):
                pass
            else:
                worst_square = max(worst_square, abs(p_lower(F, sq) - up ** 2)
                                   / max(up ** 2, 1e-300))
            n_probes += 1
    ok = (worst_gamma <= 1e-9 and worst_star <= 1e-10
          and worst_twist <= 1e-9 and worst_square <= 1e-7)
    _verdict(8, "seminorm-laws",
             ok, f"{n_probes} probes over {len(sets)} sets: lower vs "
                 f"gamma*upper excess {worst_gamma:.2e}, star gap "
                 f"{worst_star:.2e}, twist gap {worst_twist:.2e}, "
                 f"square gap {worst_square:.2e} (bound 1e-7)")


def test_criterion_09_holder_identity():
    rng = np.random.default_rng(RNG_SEED + 6)
    worst_analytic = 0.0
    worst_excess = -float("inf")
    worst_under = -float("inf")
    n_checks = 0
    for p in (2.0, 3.0, 4.0, 6.0):
        for k in (2, 5, 10):
            for rep in range(100):
                masses = rng.random(k) + 0.1
                f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                sup = holder_sup(f, p, masses)["sup"]
                norm_p = float(np.sum(masses * np.abs(f) ** p) ** (1.0 / p))
                worst_analytic = max(worst_analytic,
                                     abs(sup - norm_p ** 2) / norm_p ** 2)
                if rep < 5:
                    est = weight_ascent_oracle(f, p, masses)["sup_estimate"]
                    worst_excess = max(worst_excess, est - sup)
                    worst_under = max(worst_under, (sup - est) / sup)
                n_checks += 1
    frozen = holder_sup([1.0, 2.0], 4.0, [0.5, 0.5])["sup"]
    frozen_gap = abs(frozen - np.sqrt(8.5))
    ok = (worst_analytic <= 1e-8 and worst_excess <= 1e-8
          and worst_under <= 1e-6 and frozen_gap <= 1e-10)
    _verdict(9, "holder-identity",
             ok, f"{n_checks} draws over 12 (exponent, size) cells: "
                 f"worst analytic gap {worst_analytic:.2e} (bound 1e-8), "
                 f"oracle excess {worst_excess:.2e}, oracle undershoot "
                 f"{worst_under:.2e}, frozen case gap {frozen_gap:.2e} "
                 f"(bound 1e-10)")


def test_criterion_10_radical(diag):
    inst = diag["instance"]
    bad_rep = radical(diag["families"]["bad"], inst)
    bad_routes = all(c.passed for c in bad_rep.checks)
    good_rep = radical(diag["families"]["good"], inst)
    good_routes = all(c.passed for c in good_rep.checks)
    kernel_names = {c.name for c in good_rep.checks}
    ok = (bad_rep.dim == 2 and bad_routes
          and good_rep.dim == 0 and good_routes
          and "gram-vs-representation-kernels" in kernel_names)
    _verdict(10, "radical-collapse",
             ok, f"degenerate family dim {bad_rep.dim} (want 2), kernel "
                 f"routes agree: {bad_routes}; balanced family dim "
                 f"{good_rep.dim} (want 0), representation-kernel route "
                 f"checked: {good_routes}")


def test_criterion_11_ga_star_harness(diag):
    started = time.perf_counter()
    inst = diag["instance"]
    good1 = ga_star_check(diag["families"]["good"], inst)
    good2 = ga_star_check(diag["families"]["good"], inst)
    bad1 = ga_star_check(diag["families"]["bad"], inst)
    bad2 = ga_star_check(diag["families"]["bad"], inst)
    elapsed = time.perf_counter() - started

    good_ok = (good1.verdict and all(c.passed for c in good1.conditions)
               and len(good1.consequences) == 3
               and all(c.passed for c in good1.consequences))
    sep = {c.name: c for c in bad1.conditions}["separates-points"]
    witness = sep.data.get("witness_coeffs")
    bad_ok = not bad1.verdict and not sep.passed and witness is not None
    deterministic = (good1.as_dict() == good2.as_dict()
                     and bad1.as_dict() == bad2.as_dict())
    if witness is not None:
        print(f"  insufficiency witness coefficients: {witness}")
    ok = good_ok and bad_ok and deterministic and elapsed < 10.0
    _verdict(11, "ga-star-harness",
             ok, f"good verdict {good1.verdict} with "
                 f"{len(good1.consequences)} consequences, bad verdict "
                 f"{bad1.verdict} with separation witness, deterministic: "
                 f"{deterministic}, {elapsed:.2f}s (bound 10s)")
