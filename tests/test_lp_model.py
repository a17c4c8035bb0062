"""Discrete weighted-sequence model: closed forms against the ascent oracle."""

import numpy as np
import pytest

from qstarlab import (BadExponent, BadMeasure, DiscreteLpAlgebra, OutOfFloatRange,
                      ZeroFunction, ball_lower_seminorm_nonneg, conjugate_index,
                      holder_sup, lp_bounded_norm, weight_ascent_oracle)

CASES = [
    (2.0, [0.5, 0.5], [1.0, 2.0]),
    (2.5, [0.2, 0.8], [3.0, -1.0]),
    (3.0, [0.3, 0.3, 0.4], [1.0, 0.5, 2.0]),
    (4.0, [0.5, 0.5], [1.0, 2.0]),
    (4.0, [0.1, 0.2, 0.3, 0.4], [0.5, 1.5, -2.5, 1.0]),
    (6.0, [0.25, 0.25, 0.25, 0.25], [1.0, 1.0, 1.0, 4.0]),
]


def test_conjugate_index_values():
    assert conjugate_index(2.0) == float("inf")
    assert conjugate_index(4.0) == pytest.approx(2.0)
    assert conjugate_index(3.0) == pytest.approx(3.0)
    assert conjugate_index(6.0) == pytest.approx(1.5)
    with pytest.raises(BadExponent):
        conjugate_index(1.9)


def test_frozen_reference_value():
    # p = 4, equal masses, f = (1, 2): the supremum is sqrt(8.5) exactly
    out = holder_sup([1.0, 2.0], 4.0, [0.5, 0.5])
    assert out["sup"] == pytest.approx(np.sqrt(8.5), abs=1e-10)
    assert out["seminorm"] == pytest.approx(8.5 ** 0.25, abs=1e-10)


def test_sup_is_squared_norm():
    for p, m, f in CASES:
        out = holder_sup(f, p, m)
        lp = float(np.sum(np.asarray(m) * np.abs(f) ** p)) ** (1.0 / p)
        assert out["sup"] == pytest.approx(lp ** 2, rel=1e-12)


def test_extremal_weight_is_feasible_and_attains():
    for p, m, f in CASES:
        out = holder_sup(f, p, m)
        w = out["extremal_weight"]
        assert np.all(w >= -1e-15)
        assert out["weight_ball_norm"] <= 1.0 + 1e-9
        assert out["attained"] == pytest.approx(out["sup"], rel=1e-10)


def test_holder_sup_is_scale_covariant():
    # |f|^p leaves the float range long before the squared p-norm does;
    # the norm scales with f and the extremal weight does not move
    for p, m, f in CASES:
        base = holder_sup(f, p, m)
        for c in (1e-100, 1e100):
            out = holder_sup(np.multiply(f, c), p, m)
            for key, power in (("seminorm", 1), ("sup", 2), ("attained", 2)):
                assert out[key] == pytest.approx(c ** power * base[key], rel=1e-14, abs=0.0)
            assert np.allclose(out["extremal_weight"], base["extremal_weight"],
                               rtol=1e-14, atol=0.0)


def test_out_of_float_range_is_a_typed_error():
    for values in ([1e-200, 1e-300], [1e200, 1.0]):
        with pytest.raises(OutOfFloatRange):
            holder_sup(values, 4.0, [0.5, 0.5])
    # in range although max|f|^p m underflows for any max|f| < 1
    assert holder_sup([1.0, 1e-5], 1000.0, [1e-300, 1.0])["sup"] == pytest.approx(
        1e-300 ** (2.0 / 1000.0), rel=1e-12)
    # |f|^2 m overflows for the oracle, which works on f unscaled
    with pytest.raises(OutOfFloatRange):
        weight_ascent_oracle([1e200, 1.0], 4.0, [0.5, 0.5])


def test_quadratic_exponent_weight_is_flat():
    out = holder_sup([1.0, 2.0], 2.0, [0.5, 0.5])
    assert np.allclose(out["extremal_weight"], 1.0)
    assert out["sup"] == pytest.approx(2.5)


def test_oracle_matches_closed_form():
    # the oracle climbs the constraint sphere with no analytic shortcut,
    # so agreement pins the closed form from below
    for p, m, f in CASES:
        out = holder_sup(f, p, m)
        orc = weight_ascent_oracle(f, p, m)
        assert orc["sup_estimate"] <= out["sup"] * (1.0 + 1e-9)
        assert orc["sup_estimate"] == pytest.approx(out["sup"], rel=1e-6)


def test_oracle_deterministic():
    a = weight_ascent_oracle([1.0, -2.0, 0.5], 3.0, [0.3, 0.3, 0.4])
    b = weight_ascent_oracle([1.0, -2.0, 0.5], 3.0, [0.3, 0.3, 0.4])
    assert a["sup_estimate"] == b["sup_estimate"]
    assert np.array_equal(a["weight"], b["weight"])


def test_bounded_norm_routes_agree():
    for p, m, f in CASES:
        out = lp_bounded_norm(f, p, m)
        assert out["analytic"] == pytest.approx(np.abs(f).max())
        assert out["agrees"], out


def test_ball_lower_closed_form():
    f = [1.0, 2.0, 0.5]
    m = [0.2, 0.5, 0.3]
    for p in (2.0, 3.0, 4.0, 6.0):
        got = ball_lower_seminorm_nonneg(f, p, m)
        half = p / 2.0
        expect = float(np.sum(np.asarray(m) * np.asarray(f) ** half)) ** (1.0 / half)
        assert got == pytest.approx(expect, rel=1e-12)
        # cross-check: the same supremum reached through the quadratic
        # problem for the pointwise square root
        via_square = holder_sup(np.sqrt(f), p, m)["sup"]
        assert got == pytest.approx(via_square, rel=1e-10)


def test_ball_lower_requires_nonnegative():
    with pytest.raises(BadMeasure):
        ball_lower_seminorm_nonneg([1.0, -1.0], 4.0, [0.5, 0.5])


def test_algebra_element_round_trip():
    lp = DiscreteLpAlgebra.build([0.25, 0.25, 0.5])
    f = [1.0 + 1.0j, -2.0, 0.0]
    assert np.allclose(lp.values(lp.element(f)), f)


def test_weight_form_evaluation():
    lp = DiscreteLpAlgebra.build([0.5, 0.5])
    w = [0.3, 1.7]
    phi = lp.weight_form(w)
    a, b = lp.element([1.0, 2.0]), lp.element([1.0 - 1.0j, 0.5])
    expect = sum(mm * ww * fa * np.conj(fb)
                 for mm, ww, fa, fb in zip(lp.masses, w, [1.0, 2.0],
                                           [1.0 - 1.0j, 0.5]))
    assert phi.eval(a, b) == pytest.approx(expect, abs=1e-12)


def test_point_family_is_unbalanced():
    lp = DiscreteLpAlgebra.build([0.5, 0.5])
    fam = lp.point_family(4.0)
    assert not fam.balanced
    assert len(fam.seeds) == 2


def test_error_paths():
    with pytest.raises(BadExponent):
        holder_sup([1.0], 1.5, [1.0])
    with pytest.raises(ZeroFunction):
        holder_sup([0.0, 0.0], 4.0, [0.5, 0.5])
    with pytest.raises(BadMeasure):
        DiscreteLpAlgebra.build([0.5, -0.5])
    with pytest.raises(BadMeasure):
        DiscreteLpAlgebra.build([])


# float.hex of (sup_estimate, weight, sweeps) for the four k = 8 inputs of
# the cli-bundles benchmark and one k = 2 case; any reordering of the
# oracle's float operations shows up here as a changed bit.  The oracle
# calls the C library's pow, so a libm that rounds pow differently moves
# the pins too
_ORACLE_PINS = [
    ([float(i + 1) for i in range(8)], 4.0, [1 / 8] * 8,
     "0x1.08e853f43b0ddp+5",
     ["0x1.eec8a367f1801p-6", "0x1.eec8b2a152c80p-4", "0x1.1650e2115b248p-2",
      "0x1.eec8af1852780p-2", "0x1.828cc9f1a12fbp-1", "0x1.1650e3abc07dcp+0",
      "0x1.7ad1a859b68b0p+0", "0x1.eec8b34975850p+0"], 11),
    ([3, 1, 4, 1, 5, 9, 2, 6], 2.5, [1 / 8] * 8,
     "0x1.8c8032e7f6f27p+4",
     ["0x1.8d773235cb450p-1", "0x1.caf4299ab453fp-2", "0x1.caf429a1c7d58p-1",
      "0x1.caf4293e9903fp-2", "0x1.00901d94f78a7p+0", "0x1.58371fcccaf3ap+0",
      "0x1.4487813c54ca7p-1", "0x1.190cf6f4fe6d0p+0"], 9),
    ([float(i + 1) for i in range(8)], 5.0, [0.3] + [0.1] * 7,
     "0x1.06ad8a6c2c89cp+5",
     ["0x1.5c522635d7aadp-8", "0x1.5c522591bae80p-5", "0x1.25e5506b97f48p-3",
      "0x1.5c522a1060e5dp-2", "0x1.54283e664bca0p-1", "0x1.25e553eec244bp+0",
      "0x1.d2b21755818a5p+0", "0x1.5c522bb0d0e84p+1"], 10),
    ([1, -2, 3j, 0.5, 4, 1 + 1j, 2, -3], 6.0,
     [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1],
     "0x1.0fabec665b181p+3",
     ["0x1.c6a230c28c6fdp-7", "0x1.c6a22da8cdcd5p-3", "0x1.1fb2a227ce6a7p+0",
      "0x1.c6a1e46b7d000p-11", "0x1.c6a230b44da05p+1", "0x1.c6a22e8d6406cp-5",
      "0x1.c6a22ffd670c6p-3", "0x1.1fb2a441be998p+0"], 9),
    ([1.0, 2.0], 4.0, [0.5, 0.5],
     "0x1.752e50db3a3a2p+1", ["0x1.5f3aa6386f118p-2", "0x1.5f3aa677b3490p+0"], 2),
]


@pytest.mark.parametrize("values, p, masses, sup_hex, weight_hex, sweeps", _ORACLE_PINS)
def test_oracle_iterates_are_pinned_to_the_bit(values, p, masses, sup_hex,
                                               weight_hex, sweeps):
    out = weight_ascent_oracle(values, p, masses)
    assert out["sup_estimate"].hex() == sup_hex
    assert [float(x).hex() for x in out["weight"]] == weight_hex
    assert out["sweeps"] == sweeps


def test_closed_forms_need_no_instance(monkeypatch):
    # the sup, the oracle and the ball seminorm read the masses alone; only
    # the generic norm route builds the k-point algebra
    from qstarlab import lp_model
    built = []
    build = lp_model.build_lp_instance
    monkeypatch.setattr(lp_model, "build_lp_instance", lambda k: built.append(k) or build(k))
    for p, m, f in CASES:
        holder_sup(f, p, m)
        weight_ascent_oracle(f, p, m)
        ball_lower_seminorm_nonneg(np.abs(f), p, m)
    assert built == []
    lp_bounded_norm([1.0, 2.0], 4.0, [0.5, 0.5])
    assert built == [2]
    for call in (holder_sup, weight_ascent_oracle):
        for masses in ([], [0.5, -0.5], [0.5, float("nan")]):
            with pytest.raises(BadMeasure):
                call([1.0, 2.0][: len(masses)] or [1.0], 4.0, masses)
