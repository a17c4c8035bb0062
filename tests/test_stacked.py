"""Stacked element queries agree row by row with the one-element calls."""

import numpy as np
import pytest

from corpus import make_corpus
from qstarlab import (DEFAULT_TOL, AmbiguousProduct, BoundedFormSet,
                      CharacterizationMismatch, NotWellDefined, ProductOverflow,
                      bundle_names, extract_bounded_algebra, load_bundle, m_bounded_norm,
                      m_bounded_values, p_lower, p_star, p_upper, seminorms, weak_product,
                      weak_products)
from qstarlab.bounded import WeakProductReport
from qstarlab.forms import _right_mults

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
    # NaN, so it raises CharacterizationMismatch and never reaches LAPACK;
    # extract_bounded_algebra zeroes it before its products too, so an
    # infinite probe meets no inf * 0 that numpy would warn about
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
            for row in rows:
                calls = [lambda: m_bounded_norm(inst.element(row), fam, inst),
                         lambda: m_bounded_values(row[None], fam, inst),
                         lambda: extract_bounded_algebra(fam, inst, [inst.unit, inst.element(row)])]
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


def _weak_products_per_pair(A, B, family, alg, tol=DEFAULT_TOL):
    """``weak_products`` with each pair's right-hand side built from its own
    right factor, one member at a time: the reference that sharing the
    products of repeated right factors must match bit for bit."""
    ctx = family.context(alg, tol)
    M, Uh, s, Vh = ctx.weak_system
    smax = float(s.max(initial=0.0))
    smin = float(s.min()) if s.size else 0.0
    if M.shape[0] < alg.dim or smin <= tol.rank * max(smax, 1e-300):
        raise AmbiguousProduct(None)
    parts = [np.ascontiguousarray(Y, dtype=complex).view(float)
             for Y in (np.conj(A) @ alg.star_matrix()[0].T, B)]
    k = [np.frexp(np.abs(Y).max(axis=1, initial=0.0))[1] for Y in parts]
    R0 = _right_mults(alg, tol)
    AS, BX = ((R0 @ np.ldexp(Y, -ky[:, None]).view(complex).T).transpose(2, 0, 1)
              for Y, ky in zip(parts, k))
    labels, units = ctx.nonzero
    ASh, step = AS.conj().transpose(0, 2, 1), max(1, 2 ** 13 // M.shape[0])
    c, resid = np.empty((alg.dim, len(BX)), dtype=complex), np.empty((2, len(BX)))
    for sl in (slice(lo, lo + step) for lo in range(0, len(BX), step)):
        rt = np.stack([BX[sl] @ u.T @ ASh[sl] for u in units], axis=1).reshape(-1, M.shape[0])
        c[:, sl] = Vh.conj().T @ ((Uh @ rt.T) / s[:, None])
        D = (M @ c[:, sl] - rt.T).view(float).reshape(M.shape[0], -1, 2)
        R = rt.view(float)
        resid[:, sl] = np.sqrt([np.einsum("ijk,ijk->j", D, D), np.einsum("ij,ij->i", R, R)])
    e = k[0] + k[1]
    with np.errstate(over="ignore"):
        c = np.ldexp(np.ascontiguousarray(c.T).view(float), e[:, None]).view(complex)
        back = np.ldexp(resid, e).T
    out = []
    for ci, (res, rn), br, ei in zip(c, resid.T, back, e.tolist()):
        if not res <= tol.weak * max(rn, 1e-300):
            out.append(NotWellDefined(*br))
        elif not (np.isfinite(ci).all() and np.isfinite(br).all()):
            out.append(ProductOverflow(f"weak product overflows the float range: scale 2^{ei}"))
        else:
            out.append((alg.element(ci), WeakProductReport(
                *br.tolist(), smin, smax, M.shape[0], list(labels))))
    return out


def _bits(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    c, rep = outcome
    return c.coeffs.tobytes(), rep.as_dict()


def test_weak_products_match_the_per_pair_right_hand_sides_bit_for_bit():
    pairs = [(b["instance"], fam) for b in map(load_bundle, bundle_names())
             for fam in b["families"].values()]
    for n in (4, 6):
        pairs += make_corpus(count=3, seed=70 + n, n_min=n, n_max=n)
    rng = np.random.default_rng(23)
    shared = 0
    for inst, fam in pairs:
        d = inst.dim
        # extract_bounded_algebra's pattern: the pairs of six probes, then the squares
        P = np.vstack([np.eye(d), np.eye(d).conj() @ inst.star_matrix()[0].T])[:6]
        m = len(P)
        left, right = np.divmod(np.arange(m * m), m)
        R = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
        stacks = [
            (np.vstack([P[left], P.conj() @ inst.star_matrix()[0].T]), np.vstack([P[right], P])),
            # one right factor for every pair, and one at a scale that shares its scaled bytes
            (R, np.vstack([R[:1]] * 5 + [2.0 ** 700 * R[:1]])),
            (R[:3], R[[4, 1, 4]]),
            (R, R[::-1]),
            (R[:1], R[1:2]),
            (np.vstack([R, 1e-200 * R]), np.vstack([np.roll(R, 1, axis=0), R])),
        ]
        for A, B in stacks:
            try:
                want = [_bits(o) for o in _weak_products_per_pair(A, B, fam, inst)]
            except AmbiguousProduct:
                with pytest.raises(AmbiguousProduct):
                    weak_products(A, B, fam, inst)
                continue
            assert [_bits(o) for o in weak_products(A, B, fam, inst)] == want
            shared += 1
    assert shared >= 60


def test_infinite_probes_raise_without_numpy_warnings():
    # under the suite's error::RuntimeWarning a warning fails the test; the
    # outcomes are those a NaN probe has: the norm routes raise on the probe,
    # and a pair with a non-finite factor is inconsistent with NaN residuals
    for name in bundle_names():
        b = load_bundle(name)
        inst = b["instance"]
        for fam in b["families"].values():
            if fam.context(inst, DEFAULT_TOL).separation[0]:
                continue
            a0, a1 = np.eye(inst.dim)[[inst.a0_indices[0], inst.a0_indices[-1]]]
            bent = a0.astype(complex)
            bent[inst.a0_indices[-1]] += complex(1.0, -np.inf)
            for probe in (np.where(a0 == 1.0, np.inf, 0.0), bent):
                P = np.vstack([inst.unit.coeffs, probe])
                with pytest.raises(CharacterizationMismatch) as exc:
                    extract_bounded_algebra(fam, inst, [inst.element(p) for p in P])
                assert str(exc.value) == "norm characterizations disagree: gns=nan, pencil=nan"
                out = weak_products(P[[0, 1, 1, 0]], P[[1, 0, 1, 0]], fam, inst)
                for bad in out[:3]:
                    assert isinstance(bad, NotWellDefined)
                    assert np.isnan(bad.residual) and np.isnan(bad.rhs_norm)
                assert isinstance(out[3], tuple)
