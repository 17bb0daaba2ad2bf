import numpy as np
import pytest

import reference_codec
from spectralpq import transform
from spectralpq.errors import StructuralError
from spectralpq.transform import (
    DST_4X4,
    TransformSpec,
    _float_basis,
    _inverse_matrix,
    coefficient_distance,
    coefficient_scale,
    dct_matrix,
    forward,
    inverse,
    make_spec,
)

SIZES = (4, 8, 16, 32)


def test_4x4_core_matrix_pinned():
    expected = np.array(
        [[64, 64, 64, 64], [83, 36, -36, -83], [64, -64, -64, 64], [36, -83, 83, -36]]
    )
    assert np.array_equal(dct_matrix(4), expected)


@pytest.mark.parametrize("n", SIZES)
def test_ac_rows_sum_to_zero(n):
    basis = dct_matrix(n)
    assert np.all(basis[1:].sum(axis=1) == 0)
    assert np.all(basis[0] == 64)


@pytest.mark.parametrize("n", SIZES)
def test_near_orthogonality(n):
    basis = dct_matrix(n)
    gram = basis @ basis.T
    scale = 4096 * n
    assert np.max(np.abs(gram - scale * np.eye(n))) <= 0.02 * scale


def test_dst_matrix_near_orthogonal():
    gram = DST_4X4 @ DST_4X4.T
    scale = 4096 * 4
    assert np.max(np.abs(gram - scale * np.eye(4))) <= 0.02 * scale


def test_forward_zero_and_constant():
    spec = make_spec(8, "DCT", 8)
    assert np.all(forward(np.zeros((8, 8), dtype=np.int64), spec) == 0)
    coeffs = forward(np.full((8, 8), 37, dtype=np.int64), spec)
    nz = np.argwhere(coeffs != 0)
    assert nz.shape == (1, 2) and tuple(nz[0]) == (0, 0)


def test_shape_mismatch_errors():
    spec = make_spec(8, "DCT", 8)
    with pytest.raises(StructuralError):
        forward(np.zeros((4, 4)), spec)
    with pytest.raises(StructuralError):
        inverse(np.zeros((16, 16)), spec)
    with pytest.raises(StructuralError):
        make_spec(8, "DST")
    with pytest.raises(StructuralError):
        make_spec(5, "DCT")


def test_round_trip_4x4_random_blocks():
    spec = make_spec(4, "DCT", 10)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.integers(-1023, 1024, (4, 4))
        y = inverse(forward(x, spec), spec)
        assert np.max(np.abs(y - x)) <= 1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_round_trip_bound_all_sizes(n, bit_depth):
    spec = make_spec(n, "DCT", bit_depth)
    lim = (1 << bit_depth) - 1
    rng = np.random.default_rng(n * bit_depth)
    for _ in range(150):
        x = rng.integers(-lim, lim + 1, (n, n))
        y = inverse(forward(x, spec), spec)
        assert np.max(np.abs(y - x)) <= 1

    # a (3, n, n) stack transforms as three separate blocks
    stack = rng.integers(-lim, lim + 1, (3, n, n))
    coeffs = forward(stack, spec)
    assert np.array_equal(coeffs, np.stack([forward(x, spec) for x in stack]))
    assert np.array_equal(inverse(coeffs, spec), np.stack([inverse(c, spec) for c in coeffs]))


def test_inverse_zero_and_dc_only():
    spec = make_spec(16, "DCT", 8)
    assert np.all(inverse(np.zeros((16, 16), dtype=np.int64), spec) == 0)
    coeffs = np.zeros((16, 16), dtype=np.int64)
    coeffs[0, 0] = 100 * 16 * coefficient_scale(16, 8)  # DC of a constant-100 block
    block = inverse(coeffs, spec)
    assert np.max(np.abs(block - 100)) <= 1


@pytest.mark.parametrize("n", SIZES)
def test_forward_inverse_forward_fixed_point(n):
    spec = make_spec(n, "DCT", 8)
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        x = rng.integers(-255, 256, (n, n))
        c = forward(x, spec)
        c2 = forward(inverse(c, spec), spec)
        assert np.max(np.abs(c2 - c)) <= 1


def test_linearity_bounds():
    # scaling an already-rounded transform amplifies its rounding, so the
    # achievable bound is floor((|a| + |b| + 1) / 2); it reduces to 1 for
    # unit coefficients
    rng = np.random.default_rng(21)
    for n in SIZES:
        spec = make_spec(n, "DCT", 8)
        for _ in range(100):
            a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            x = rng.integers(-31, 32, (n, n))
            y = rng.integers(-31, 32, (n, n))
            lhs = forward(a * x + b * y, spec)
            rhs = a * forward(x, spec) + b * forward(y, spec)
            assert np.max(np.abs(lhs - rhs)) <= (abs(a) + abs(b) + 1) // 2
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            x = rng.integers(-127, 128, (n, n))
            y = rng.integers(-127, 128, (n, n))
            lhs = forward(a * x + b * y, spec)
            rhs = a * forward(x, spec) + b * forward(y, spec)
            assert np.max(np.abs(lhs - rhs)) <= 1


@pytest.mark.parametrize("n", SIZES)
def test_energy_compaction_on_gradients(n):
    spec = make_spec(n, "DCT", 8)
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    ramps = [xx, yy, xx + yy, xx - yy, 2 * xx + yy]
    for ramp in ramps:
        block = np.round(200.0 * (ramp - ramp.mean()) / max(ramp.max() - ramp.min(), 1)).astype(np.int64)
        coeffs = forward(block, spec).astype(np.float64)
        total = np.sum(coeffs**2)
        top_left = np.sum(coeffs[: n // 2, : n // 2] ** 2)
        assert top_left >= 0.9 * total


def test_dst_round_trip():
    spec = make_spec(4, "DST", 10)
    assert spec.kind == "DST"
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = rng.integers(-1023, 1024, (4, 4))
        y = inverse(forward(x, spec), spec)
        assert np.max(np.abs(y - x)) <= 1


def test_coefficient_distance():
    assert coefficient_distance((0, 0), 8) == 0.0
    assert coefficient_distance((3, 4), 8) == pytest.approx(5.0)
    assert coefficient_distance((1, 0), 8) == coefficient_distance((0, 1), 8) == 1.0
    with pytest.raises(StructuralError):
        coefficient_distance((8, 0), 8)


def test_spec_shift_schedule_is_gain_one():
    for n in SIZES:
        for bd in (8, 10):
            spec = make_spec(n, "DCT", bd)
            assert isinstance(spec, TransformSpec)
            assert spec.forward_shift + spec.inverse_shift == 48


def _sign_patterns(basis, rng):
    """Sign blocks that drive single outputs of `basis @ x @ basis.T` to their
    largest magnitude, plus constant, checkerboard and random signs."""
    n = basis.shape[0]
    rows = [np.sign(basis[k]) + (basis[k] == 0) for k in range(n)]
    blocks = [np.outer(rows[k], rows[m]) for k in range(n) for m in range(n)]
    blocks += [np.ones((n, n)), -np.ones((n, n)), np.indices((n, n)).sum(axis=0) % 2 * 2 - 1]
    blocks += list(rng.choice([-1, 1], (8, n, n)))
    return np.array(blocks, dtype=np.int64)


@pytest.mark.parametrize("kind,n", [("DST", 4)] + [("DCT", n) for n in SIZES])
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_forward_float_path_equals_int64_at_sample_extremes(kind, n, bit_depth):
    spec = make_spec(n, kind, bit_depth)
    top = (1 << bit_depth) - 1
    signs = _sign_patterns(spec.basis, np.random.default_rng(n + bit_depth))
    for block in np.concatenate([top * signs, (top - 1) * signs, signs]):
        assert np.array_equal(forward(block, spec), reference_codec.forward(block, spec))


@pytest.mark.parametrize("kind,n", [("DST", 4)] + [("DCT", n) for n in SIZES])
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_inverse_float_path_equals_int64_up_to_its_bound(kind, n, bit_depth):
    spec = make_spec(n, kind, bit_depth)
    _, limit = _float_basis(kind, n, True)
    signs = _sign_patterns(_inverse_matrix(kind, n), np.random.default_rng(n * bit_depth))
    for coeffs in np.concatenate([limit * signs, (limit - 1) * signs, 1000 * signs]):
        assert np.array_equal(inverse(coeffs, spec), reference_codec.inverse(coeffs, spec))


@pytest.mark.parametrize("kind,n", [("DST", 4)] + [("DCT", n) for n in SIZES])
def test_float_bounds_derived_from_the_bases(kind, n):
    for inv, basis in ((False, make_spec(n, kind).basis),
                       (True, _inverse_matrix(kind, n))):
        _, limit = _float_basis(kind, n, inv)
        l1 = int(np.abs(basis).sum(axis=1).max())
        assert limit * l1 * l1 < 1 << 53 <= (limit + 1) * l1 * l1
    # the inverse goes exact in float64 up to about 2^17; sample residuals of
    # 10-bit frames (and so every forward input) are far inside the forward bound
    assert 1 << 17 <= _float_basis(kind, n, True)[1] < 1 << 18
    assert _float_basis(kind, n, False)[1] > 1 << 30


@pytest.mark.parametrize("n", SIZES)
def test_inverse_above_its_bound_takes_the_int64_product(n, monkeypatch):
    spec = make_spec(n, "DCT", 8)
    _, limit = _float_basis("DCT", n, True)
    int64_products = []

    def spy(kind, size):
        int64_products.append((kind, size))
        return _inverse_matrix(kind, size)

    monkeypatch.setattr(transform, "_inverse_matrix", spy)
    signs = _sign_patterns(_inverse_matrix("DCT", n), np.random.default_rng(n))[:4]
    for magnitude, int64_path in ((limit - 1, False), (limit, False), (limit + 1, True),
                                  (limit + 2, True), (1 << 30, True)):
        for coeffs in (magnitude * signs[0], -magnitude * signs[1]):
            int64_products.clear()
            got = inverse(coeffs, spec)
            assert int64_products == ([("DCT", n)] if int64_path else [])
            assert np.array_equal(got, reference_codec.inverse(coeffs, spec))


def test_forward_rejects_blocks_beyond_its_float_bound():
    spec = make_spec(32, "DCT", 8)
    _, limit = _float_basis("DCT", 32, False)
    block = np.zeros((32, 32), dtype=np.int64)
    block[5, 7] = -limit
    assert np.array_equal(forward(block, spec), reference_codec.forward(block, spec))
    block[5, 7] = -limit - 1
    with pytest.raises(StructuralError, match="exceeds the transform limit"):
        forward(block, spec)
