import numpy as np
import pytest

import reference_codec
from spectralpq.entropy import LEVEL_LIMIT, block_bits, level_bits
from spectralpq.errors import ConfigurationError
from spectralpq.quantizer import (
    M_TABLE,
    QSTEP_TABLE,
    S_TABLE,
    RdoqConfig,
    inverse_step,
    qstep,
    quant_params,
    rdoq_candidates,
    rdoq_config,
    rdoq_cost,
    rdoq_quantize,
    urq_dequantize,
    urq_quantize,
)


def test_table_first_six_rows_exact():
    for qp in range(6):
        p = quant_params(qp, 4)
        assert round(p.qstep, 4) == QSTEP_TABLE[qp]
        assert p.m == M_TABLE[qp]
        assert p.s == S_TABLE[qp]


def test_m_s_product_near_2_20():
    for qp in range(52):
        p = quant_params(qp, 4)
        assert abs(p.m * p.s - 2**20) <= 1e-3 * 2**20


def test_qstep_doubles_every_six():
    for qp in range(46):
        assert qstep(qp + 6) == pytest.approx(2.0 * qstep(qp), abs=1e-9)
        ratio = qstep(qp + 1) / qstep(qp)
        assert 1.12 <= ratio <= 1.13


def test_qbits_and_deadzone():
    p = quant_params(4, 4)
    assert p.qbits == 19
    assert p.f == 1 << 18
    p32 = quant_params(0, 32)
    assert p32.qbits == 16
    assert p32.f == 1 << 15


@pytest.mark.parametrize("qp,n", [(-1, 4), (52, 4), (30, 5), (30, 64)])
def test_quant_params_validation(qp, n):
    for _ in range(2):  # every call raises, cached or not
        with pytest.raises(ConfigurationError):
            quant_params(qp, n)


@pytest.mark.parametrize("qp,n", [(27.0, 4), (True, 4), (27, 4.0), (27, True), ("27", 4),
                                  (np.float64(27), 8)])
def test_quant_params_rejects_non_integers(qp, n):
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            quant_params(qp, n)


@pytest.mark.parametrize("args", [(99, 32, 8), (-1, 32, 8), (27, 5, 8), (27, 64, 8), (27, 32, 9),
                                  (27, 32, 12), (27.5, 32, 8), (27.0, 32, 8), (True, 32, 8),
                                  (27, 32.0, 8), (27, 32, 8.0), (27, 32, True)])
def test_rdoq_config_validation(args):
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            rdoq_config(*args)


def test_quant_params_and_rdoq_config_are_cached():
    assert quant_params(27, 8) is quant_params(27, 8)
    assert rdoq_config(27, 8, 10) is rdoq_config(27, 8, 10)
    assert quant_params(np.int64(27), 8) == quant_params(27, 8)
    assert rdoq_config(np.int64(27), np.int64(8), np.int64(10)) == rdoq_config(27, 8, 10)


def test_urq_worked_examples():
    assert urq_quantize(0, 4, 4) == 0
    assert urq_quantize(320, 4, 4) == 10
    assert urq_quantize(32, 4, 4) == 1
    assert urq_quantize(-320, 4, 4) == -10
    assert urq_dequantize(0, 4, 4) == 0
    assert urq_dequantize(10, 4, 4) == 320
    assert urq_dequantize(1, 0, 4) == 20


def test_urq_monotone_in_x():
    xs = np.arange(-5000, 5000)
    for qp, n in ((0, 4), (22, 32), (37, 4)):
        levels = urq_quantize(xs, qp, n)
        assert np.all(np.diff(levels) >= 0)


def test_urq_round_trip_bound_sample():
    rng = np.random.default_rng(13)
    for qp in (0, 5, 22, 37, 51):
        for n in (4, 8, 16, 32):
            step = inverse_step(qp, n)
            x = rng.integers(-(1 << 14), (1 << 14) + 1, 4000)
            back = urq_dequantize(urq_quantize(x, qp, n), qp, n)
            assert np.max(np.abs(x - back)) <= step


def test_urq_saturates():
    assert urq_quantize(1 << 23, 0, 32) == 1 << 15


def test_rdoq_zero_and_worked_example():
    small = RdoqConfig(1e-9)
    block = np.array([[320]])
    assert rdoq_quantize(np.array([[0]]), 4, 4, small)[0, 0] == 0
    assert rdoq_candidates(320, 4, 4) == (0, 10, 11)
    assert rdoq_quantize(block, 4, 4, small)[0, 0] == 10
    assert rdoq_quantize(-block, 4, 4, small)[0, 0] == -10


def test_rdoq_large_lambda_zeroes_everything():
    huge = RdoqConfig(1e15)
    rng = np.random.default_rng(17)
    block = rng.integers(-(1 << 20), 1 << 20, (8, 8))
    assert np.all(rdoq_quantize(block, 22, 8, huge) == 0)


def test_rdoq_matches_scalar_costs():
    rng = np.random.default_rng(19)
    cfg = rdoq_config(27, 8)
    xs = rng.integers(-(1 << 18), 1 << 18, (8, 8))
    levels = rdoq_quantize(xs, 27, 8, cfg)
    for x, q in zip(xs.ravel(), levels.ravel()):
        x, q = int(x), int(q)
        assert np.sign(q) == np.sign(x) or q == 0
        j_chosen = rdoq_cost(x, abs(q), 27, 8, cfg)
        for cand in rdoq_candidates(x, 27, 8):
            assert j_chosen <= rdoq_cost(x, cand, 27, 8, cfg) + 1e-9


def test_rdoq_rate_never_exceeds_urq():
    # candidates bracket the unquantized value from below; the only upward
    # moves come from the ~1e-5 skew between the m-based rounding grid and
    # the s-based reconstruction grid, and those are single-level steps with
    # identical code length, so the coded rate never grows
    rng = np.random.default_rng(23)
    for qp, n in ((22, 32), (27, 8), (37, 4)):
        cfg = rdoq_config(qp, n)
        xs = rng.integers(-(1 << 20), 1 << 20, (n, n))
        rd = rdoq_quantize(xs, qp, n, cfg)
        uq = urq_quantize(xs, qp, n)
        assert np.all(np.abs(rd) <= np.abs(uq) + 1)
        bumped = np.abs(rd) > np.abs(uq)
        for lvl_r, lvl_u in zip(rd[bumped].ravel(), uq[bumped].ravel()):
            assert level_bits(int(lvl_r)) == level_bits(int(lvl_u))
        assert block_bits(rd) <= block_bits(uq)


def test_rdoq_config_units_and_validation():
    # coefficient gain is 64x at n=4 and 8x at n=32 (8-bit), so lambda
    # carries the squared ratio
    assert rdoq_config(27, 4, 8).lam == pytest.approx(64.0 * rdoq_config(27, 32, 8).lam)
    assert rdoq_config(12, 4).lam == pytest.approx(0.57 * (1 << (16 - 8 - 2)) ** 2)
    with pytest.raises(ConfigurationError):
        RdoqConfig(0.0)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_rdoq_matches_signed_int64_reference(n):
    # Every coefficient magnitude below 2^14 in one pass, random blocks up to
    # past saturation, and zeros, at every QP and both bit depths' multipliers.
    rng = np.random.default_rng(n)
    sweep = np.arange(-(1 << 14), 1 << 14).reshape(-1, n, n)
    blocks = [rng.integers(-(1 << 23), 1 << 23, (n, n)), rng.integers(-200, 201, (n, n)),
              np.zeros((n, n), dtype=np.int64), np.full((n, n), -(LEVEL_LIMIT << 9))]
    for qp in range(52):
        for bit_depth in (8, 10):
            cfg = rdoq_config(qp, n, bit_depth)
            for coeffs in [sweep] + blocks:
                got = rdoq_quantize(coeffs, qp, n, cfg)
                assert np.array_equal(got, reference_codec.rdoq_quantize(coeffs, qp, n, cfg))


def test_rdoq_ties_break_toward_the_smaller_level():
    # At QP 4, N = 4 level k reconstructs to 32 * k.  48 costs 48^2 + lam at
    # level 0 and 16^2 + 3 * lam at level 1, equal at lam = 1024; 56 costs
    # 24^2 + 3 * lam at level 1 and 8^2 + 5 * lam at level 2, equal at lam = 256.
    assert rdoq_candidates(48, 4, 4) == rdoq_candidates(56, 4, 4) == (0, 1, 2)
    for x, lam, level in ((48, 1024.0, 0), (-56, 256.0, -1)):
        got = rdoq_quantize(np.array([[x]]), 4, 4, RdoqConfig(lam))
        assert got[0, 0] == level
        assert np.array_equal(got, reference_codec.rdoq_quantize(np.array([[x]]), 4, 4,
                                                                 RdoqConfig(lam)))


def test_rdoq_int_multiplier_acts_as_its_float():
    # The rate table is uint8 code lengths; an int lam must not stay integer.
    coeffs = np.random.default_rng(6).integers(-70000, 70001, (8, 8))
    for lam in (3, 1024, 10**6):
        assert np.array_equal(rdoq_quantize(coeffs, 4, 8, RdoqConfig(lam)),
                              rdoq_quantize(coeffs, 4, 8, RdoqConfig(float(lam))))
