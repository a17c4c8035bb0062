"""Stacked element queries agree row by row with the one-element calls."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, AmbiguousProduct, BoundedFormSet,
                      CharacterizationMismatch, NotWellDefined, ProductOverflow,
                      bundle_names, extract_bounded_algebra, load_bundle, m_bounded_norm,
                      m_bounded_values, p_lower, p_star, p_upper, seminorms, weak_product,
                      weak_products)

TOL = DEFAULT_TOL.cross_check


def _close(x, y):
    return x == y or abs(x - y) <= TOL * max(abs(x), abs(y))


def _cases():
    """(instance, family, coefficient stack) on the sufficient bundles and on
    corpus pairs at n = 4 and 6.  Each stack mixes basis rows, random rows,
    a Hermitian row, rows at 1e-200 and 1e300 and a zero row."""
    pairs = [(load_bundle(b)["instance"], load_bundle(b)["families"][f])
             for b, f in (("m2_diag", "good"), ("m2_full", "trace"), ("m3_pattern", "good"))]
    for n in (4, 6):
        pairs += make_corpus(count=2, seed=40 + n, n_min=n, n_max=n)
    rng = np.random.default_rng(17)
    for inst, fam in pairs:
        rand = rng.normal(size=(3, inst.dim)) + 1j * rng.normal(size=(3, inst.dim))
        herm = rand[0] + inst.element(rand[0]).star().coeffs
        C = np.vstack([np.eye(inst.dim)[:4], rand, herm, 1e-200 * rand[1], 1e300 * rand[2],
                       np.zeros(inst.dim), 1e300 * herm])
        yield inst, fam, C


def test_stacked_norms_match_single_rows():
    for inst, fam, C in _cases():
        values, herm = m_bounded_values(C, fam, inst)
        ones = [m_bounded_norm(inst.element(c), fam, inst) for c in C]
        assert herm.tolist() == [one.hermitian for one in ones]
        # a one-row call and a stack run their products through different BLAS
        # kernels, which can move the last bits: up to 4 ulp on these rows
        np.testing.assert_array_max_ulp(values, [one.value for one in ones], maxulp=16)
        # each row is scaled on its own: the scaled copies keep their ratio
        assert _close(values[8], 1e-200 * values[5])
        assert _close(values[9], 1e300 * values[6])
        assert values[10] == ones[10].value == 0.0


def test_stacked_norms_reject_a_nan_row():
    diag = load_bundle("m2_diag")
    inst, fam = diag["instance"], diag["families"]["good"]
    C = np.array([[1, 0, 0, 0], [0, np.nan, 0, 0], [0, 1, 0, 0]], dtype=complex)
    with pytest.raises(CharacterizationMismatch) as exc:
        m_bounded_values(C, fam, inst)
    # the routes reported are those of the NaN row, the first bad one
    assert exc.value.values.keys() == {"gns", "pencil"}
    assert all(np.isnan(v) for v in exc.value.values.values())
    with pytest.raises(CharacterizationMismatch) as one:
        m_bounded_norm(inst.element(C[1]), fam, inst)
    assert str(one.value) == str(exc.value)


def test_stacked_seminorms_match_single_rows():
    for inst, fam, C in _cases():
        F = BoundedFormSet.from_family(fam, inst)
        for kind, single in (("upper", p_upper), ("lower", p_lower), ("star", p_star)):
            values = seminorms(F, inst, C, kind)
            for c, v in zip(C, values):
                assert _close(v, single(F, inst.element(c))), kind
        # at ordinary scale, against the forms evaluated one by one
        e = inst.unit
        for c, up, low in zip(C[:8], seminorms(F, inst, C[:8], "upper"),
                              seminorms(F, inst, C[:8], "lower")):
            a = inst.element(c)
            assert up == pytest.approx(max(np.sqrt(max(phi.eval(a, a).real, 0.0))
                                           for phi in fam.forms(inst)), rel=1e-9, abs=1e-12)
            assert low == pytest.approx(max(abs(phi.eval(a, e)) for phi in fam.forms(inst)),
                                        rel=1e-9, abs=1e-12)


def test_stacked_weak_products_match_single_pairs():
    outcomes = set()
    for inst, fam, C in _cases():
        A, B = C, np.roll(C, 2, axis=0)
        stacked = weak_products(A, B, fam, inst)
        assert len(stacked) == len(C)
        for a, b, out in zip(A, B, stacked):
            try:
                c, rep = weak_product(inst.element(a), inst.element(b), fam, inst)
            except (NotWellDefined, ProductOverflow) as exc:
                # the pair's error, as the one-pair call raises it
                assert type(out) is type(exc)
                if isinstance(exc, NotWellDefined):
                    assert _close(out.rhs_norm, exc.rhs_norm)
                outcomes.add(type(exc).__name__)
                continue
            got, got_rep = out
            # compared on the scale of the product, whose 2-norm may overflow
            s = np.abs(c.coeffs).max(initial=0.0) or 1.0
            gap = np.linalg.norm((got.coeffs - c.coeffs) / s)
            assert gap <= TOL * np.linalg.norm(c.coeffs / s)
            assert _close(got_rep.rhs_norm, rep.rhs_norm)
            assert got_rep.residual <= DEFAULT_TOL.weak * max(got_rep.rhs_norm, 1e-300)
            outcomes.add("resolved")
    assert outcomes == {"resolved", "NotWellDefined", "ProductOverflow"}


def test_stacked_weak_products_keep_each_pairs_error():
    m3 = load_bundle("m3_pattern")
    inst, fam = m3["instance"], m3["families"]["good"]
    eye = np.eye(inst.dim)
    # up01 o up12 leaves the span; the unit against either factor does not
    A, B = eye[[3, 0, 3]], eye[[5, 5, 0]]
    out = weak_products(A, B, fam, inst)
    with pytest.raises(NotWellDefined) as exc:
        weak_product(inst.basis_element(3), inst.basis_element(5), fam, inst)
    assert isinstance(out[0], NotWellDefined)
    assert _close(out[0].rhs_norm, exc.value.rhs_norm)
    assert np.allclose(out[1][0].coeffs, eye[5], atol=1e-9)
    assert np.allclose(out[2][0].coeffs, eye[3], atol=1e-9)


def test_stacked_weak_products_raise_ambiguity_for_the_whole_stack():
    flip = load_bundle("m2_flip")
    inst, fam = flip["instance"], flip["families"]["amb"]
    with pytest.raises(AmbiguousProduct):
        weak_products(np.eye(2), np.eye(2), fam, inst)


def test_non_finite_rows_raise_the_typed_error_on_every_family():
    # a row with a NaN or infinite part runs as zero and its routes read
    # NaN, so it raises CharacterizationMismatch and never reaches LAPACK.
    # extract_bounded_algebra takes the NaN rows only: an infinite probe
    # meets inf * 0 in its products first, which numpy warns about
    for name in bundle_names():
        b = load_bundle(name)
        inst = b["instance"]
        for fam in b["families"].values():
            if not fam.sufficiency(inst).sufficient:
                continue
            d, nan, inf = inst.dim, float("nan"), float("inf")
            rows = np.zeros((6, d), dtype=complex)
            rows[0, 0] = rows[2] = nan
            rows[1, :2] = 1.0, nan
            rows[3, -1] = complex(nan, 1.0)
            rows[4, 0] = complex(1.0, -inf)
            rows[5, 0], rows[5, -1] = -inf, nan
            for k, row in enumerate(rows):
                calls = [lambda: m_bounded_norm(inst.element(row), fam, inst),
                         lambda: m_bounded_values(row[None], fam, inst)]
                if k < 4:
                    calls.append(lambda: extract_bounded_algebra(
                        fam, inst, [inst.unit, inst.element(row)]))
                for call in calls:
                    with pytest.raises(CharacterizationMismatch):
                        call()
            # one NaN row among finite ones raises on that row
            C = np.vstack([np.eye(d)[:2], rows[1], np.eye(d)[-1:]])
            with pytest.raises(CharacterizationMismatch) as stack:
                m_bounded_values(C, fam, inst)
            with pytest.raises(CharacterizationMismatch) as one:
                m_bounded_norm(inst.element(rows[1]), fam, inst)
            assert str(stack.value) == str(one.value)
            assert all(np.isnan(v) for v in stack.value.values.values())
