"""Beamforming-feedback tests: SVD contract, angle codec round-trips,
quantization bounds, the direction-only sensitivity theorem, and the codec
against its row-at-a-time reference (``tests/bfi_reference.py``) bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bfi_reference as ref

from nfsense.bfi import (BeamformingMatrix, BfiReport, ChannelMatrix,
                         MotionUpdate, angle_counts, apply_motion,
                         bfi_sensitivity_demo, compress, decompress,
                         extract_angles, phase_normalize, predicted_v_change,
                         reconstructed_v, svd_decompose)


def random_unitary(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_channel(n_rx, n_tx, rng, min_gap=1e-3):
    """Random complex channel with well-separated singular values."""
    while True:
        h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        s = np.linalg.svd(h, compute_uv=False)
        if s.size < 2 or np.min(np.abs(np.diff(s))) > min_gap:
            return ChannelMatrix(h)


def singular_values_through(h, v):
    """Column norms of H V, which for right singular vectors V are H's singular values."""
    hv = h @ v.v
    gram = hv.conj().T @ hv
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off), initial=0.0) < 1e-9 * max(np.max(np.abs(h)) ** 2, 1.0)
    return np.sqrt(np.abs(np.diag(gram)))


class TestSvd:
    """``svd_decompose`` returns V alone; H V then has orthogonal columns
    whose norms are H's singular values, largest first."""

    def test_identity(self):
        v = svd_decompose(ChannelMatrix(np.eye(2)))
        assert np.allclose(v.v.conj().T @ v.v, np.eye(2), atol=1e-12)
        assert np.allclose(singular_values_through(np.eye(2), v), [1.0, 1.0])

    def test_diagonal_values(self):
        h = np.diag([3.0, 0.0])
        v = svd_decompose(ChannelMatrix(h))
        assert np.allclose(singular_values_through(h, v), [3.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        v = svd_decompose(ChannelMatrix(np.zeros((2, 3))))
        assert np.allclose(v.v.conj().T @ v.v, np.eye(3), atol=1e-12)

    def test_reconstruction_and_unitarity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n_rx = int(rng.integers(1, 6))
            n_tx = int(rng.integers(1, 6))
            h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
            v = svd_decompose(ChannelMatrix(h))
            assert np.max(np.abs(v.v.conj().T @ v.v - np.eye(n_tx))) < 1e-9
            sigma = singular_values_through(h, v)
            assert np.all(np.diff(sigma) <= 1e-9 * np.max(np.abs(h)))
            # H = (H V) V*: V spans H's row space
            assert np.max(np.abs(h @ v.v @ v.v.conj().T - h)) < 1e-9 * np.max(np.abs(h))

    def test_rank_deficient(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        y = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        h = x @ y
        v = svd_decompose(ChannelMatrix(h))
        sigma = singular_values_through(h, v)
        assert sigma[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-9)
        assert np.max(sigma[1:]) < 1e-9 * np.max(np.abs(h))

    def test_matches_numpy_singular_values(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            v = svd_decompose(ChannelMatrix(h))
            assert np.allclose(singular_values_through(h, v),
                               np.linalg.svd(h, compute_uv=False), atol=1e-10)

    def test_gauge_freedom_removed_by_normalization(self):
        # V with its columns turned by arbitrary unit phases is an equally
        # valid SVD (non-degenerate spectra), and so, when N_tx > N_rx, is
        # any unitary mix of its null-space columns; phase normalization
        # removes the first, steering-column feedback the second
        rng = np.random.default_rng(14)
        for n_rx, n_tx in ((3, 3), (2, 4)) * 10:
            h = random_channel(n_rx, n_tx, rng)
            v = svd_decompose(h)
            other = v.v * np.exp(2j * np.pi * rng.uniform(size=n_tx))
            a = phase_normalize(v)
            b = phase_normalize(BeamformingMatrix(other))
            assert np.max(np.abs(a.v - b.v)) < 1e-12
            if n_tx > n_rx:
                other[:, n_rx:] = other[:, n_rx:] @ random_unitary(n_tx - n_rx, rng)
            b = phase_normalize(BeamformingMatrix(other))
            rec = decompress(compress(b, b_phi=0, b_psi=0, n_cols=n_rx))
            assert np.max(np.abs(rec.v - reconstructed_v(h).v)) < 1e-12


class TestPhaseNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(21)
        v = BeamformingMatrix(random_unitary(4, rng))
        once = phase_normalize(v)
        twice = phase_normalize(once)
        assert np.allclose(once.v, twice.v, atol=1e-14)

    def test_diagonal_phases_become_identity(self):
        v = BeamformingMatrix(np.diag([np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 3)]))
        # column 0 has a zero last-row entry: normalized via the fallback
        want, flagged = ref.phase_normalize(v)
        assert flagged == (0,)
        out = phase_normalize(v)
        assert same_bytes(out.v, want.v)
        assert np.allclose(out.v, np.eye(2), atol=1e-14)

    def test_last_row_real_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            out = phase_normalize(BeamformingMatrix(random_unitary(5, rng)))
            assert np.max(np.abs(out.v[-1, :].imag)) < 1e-12
            assert np.min(out.v[-1, :].real) >= -1e-12

    def test_zero_entry_column_flagged(self):
        v = BeamformingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        # column 1's phase reference is its first row, the last non-zero one
        want, flagged = ref.phase_normalize(v)
        assert flagged == (1,)
        out = phase_normalize(v)
        assert same_bytes(out.v, want.v)
        assert np.allclose(out.v[:, 1], [1.0, 0.0])


class TestCompressDecompress:
    def test_identity_round_trip(self):
        v = BeamformingMatrix(np.eye(3, dtype=complex))
        rep = compress(v, b_phi=6, b_psi=4)
        assert np.all(rep.phi_codes == 0)
        assert np.all(rep.psi_codes == 0)

    def test_zero_angle_report_gives_identity(self):
        n_phi, n_psi = angle_counts(3, 3)
        rep = BfiReport(n_tx=3, n_cols=3, b_phi=0, b_psi=0,
                        phi_angles=np.zeros(n_phi), psi_angles=np.zeros(n_psi))
        assert np.allclose(decompress(rep).v, np.eye(3), atol=1e-14)

    def test_exact_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            v = phase_normalize(BeamformingMatrix(random_unitary(n, rng)))
            rec = decompress(compress(v, b_phi=0, b_psi=0))
            assert np.max(np.abs(rec.v - v.v)) < 1e-10

    def test_16bit_round_trip(self):
        rng = np.random.default_rng(32)
        v = phase_normalize(BeamformingMatrix(random_unitary(2, rng)))
        rec = decompress(compress(v, b_phi=16, b_psi=16))
        assert np.max(np.abs(rec.v - v.v)) < 1e-3

    def test_default_bits_column_space_error(self):
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(100):
            v = phase_normalize(BeamformingMatrix(random_unitary(3, rng)))
            rec = decompress(compress(v, b_phi=6, b_psi=4))
            worst = max(worst, np.max(np.abs(rec.v @ rec.v.conj().T
                                             - v.v @ v.v.conj().T)))
        assert worst < 0.1

    def test_decompressed_always_unitary(self):
        rng = np.random.default_rng(34)
        for bits in ((1, 1), (3, 2), (6, 4)):
            v = phase_normalize(BeamformingMatrix(random_unitary(4, rng)))
            rec = decompress(compress(v, b_phi=bits[0], b_psi=bits[1]))
            assert np.max(np.abs(rec.v.conj().T @ rec.v - np.eye(4))) < 1e-9

    def test_quantization_error_bounds(self):
        rng = np.random.default_rng(35)
        for b_phi, b_psi in ((4, 3), (6, 4), (8, 6)):
            for _ in range(20):
                v = phase_normalize(BeamformingMatrix(random_unitary(3, rng)))
                exact = compress(v, b_phi=0, b_psi=0)
                quant = compress(v, b_phi=b_phi, b_psi=b_psi)
                dphi = np.abs(exact.phi_angles - quant.phi_angles)
                dphi = np.minimum(dphi, 2 * np.pi - dphi)
                assert np.max(dphi) <= math.pi / 2 ** b_phi + 1e-12
                dpsi = np.abs(exact.psi_angles - quant.psi_angles)
                assert np.max(dpsi) <= math.pi / 2 ** (b_psi + 2) + 1e-12

    def test_non_normalized_input_rejected(self):
        rng = np.random.default_rng(36)
        v = BeamformingMatrix(random_unitary(3, rng))
        with pytest.raises(ValueError):
            compress(v)

    def test_malformed_angle_counts_rejected(self):
        with pytest.raises(ValueError):
            BfiReport(n_tx=3, n_cols=3, b_phi=0, b_psi=0,
                      phi_angles=np.zeros(2), psi_angles=np.zeros(3))


class TestApplyMotion:
    def test_identity_motion(self):
        rng = np.random.default_rng(41)
        h0 = random_channel(2, 3, rng)
        m = MotionUpdate(delta_theta=0.0, delta_d_t=0.0,
                         delta_d_r=(0.0, 0.0), rho=(1.0, 1.0))
        assert np.array_equal(apply_motion(h0, m, 0.06).h, h0.h)

    def test_full_wavelength_wrap(self):
        rng = np.random.default_rng(42)
        h0 = random_channel(2, 2, rng)
        m = MotionUpdate(delta_theta=0.0, delta_d_t=0.06,
                         delta_d_r=(0.0, 0.0), rho=(1.0, 1.0))
        assert np.allclose(apply_motion(h0, m, 0.06).h, h0.h, atol=1e-12)

    def test_magnitudes_scale_rowwise_by_rho(self):
        rng = np.random.default_rng(43)
        h0 = random_channel(3, 2, rng)
        m = MotionUpdate(delta_theta=0.01, delta_d_t=0.004,
                         delta_d_r=(0.001, 0.002, 0.003), rho=(1.1, 0.9, 1.3))
        h1 = apply_motion(h0, m, 0.06)
        for j, rho in enumerate((1.1, 0.9, 1.3)):
            assert np.allclose(np.abs(h1.h[j]), rho * np.abs(h0.h[j]), rtol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(44)
        h0 = random_channel(2, 2, rng)
        with pytest.raises(ValueError):
            apply_motion(h0, MotionUpdate(rho=(1.0,), delta_d_r=(0.0,)), 0.06)


class TestDirectionOnlyTheorem:
    LAM = 0.06

    def test_radial_motion_leaves_bfi_unchanged(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            h0 = random_channel(2, 3, rng)
            sweep = [MotionUpdate(delta_theta=0.0, delta_d_t=float(s),
                                  delta_d_r=(float(s), float(s)), rho=(1.0, 1.0))
                     for s in np.linspace(0, 2 * self.LAM, 16)]
            rows = bfi_sensitivity_demo(h0, sweep, self.LAM)
            csi_span = max(r[0] for r in rows)
            bfi_span = max(r[1] for r in rows)
            assert csi_span == pytest.approx(8 * math.pi, rel=1e-6)
            assert bfi_span < 1e-6

    def test_angular_motion_matches_closed_form(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            h0 = random_channel(2, 3, rng)
            m = MotionUpdate(delta_theta=0.02, delta_d_t=0.0,
                             delta_d_r=(0.0, 0.0), rho=(1.0, 1.0),
                             ell=self.LAM / 2, theta=math.pi / 3)
            v0 = reconstructed_v(h0)
            v1 = reconstructed_v(apply_motion(h0, m, self.LAM))
            predicted = predicted_v_change(3, m, self.LAM)[:, None] * v0.v
            assert np.max(np.abs(v1.v - predicted)) < 1e-6

    def test_wide_channels_hold_on_all_columns(self):
        # with more Tx antennas than Rx, the columns beyond the steering
        # ones are rebuilt from the reported angles, so the theorem holds
        # on the whole matrix
        rng = np.random.default_rng(55)
        for n_rx, n_tx in ((2, 8), (4, 8)):
            for _ in range(10):
                h0 = random_channel(n_rx, n_tx, rng)
                angular = MotionUpdate(delta_theta=0.02, delta_d_r=(0.0,) * n_rx,
                                       rho=(1.0,) * n_rx, ell=self.LAM / 2,
                                       theta=math.pi / 3)
                sweep = [MotionUpdate(delta_d_t=float(s), delta_d_r=(float(s),) * n_rx,
                                      rho=(1.0,) * n_rx)
                         for s in np.linspace(0, 2 * self.LAM, 16)]
                v0 = reconstructed_v(h0)
                v1 = reconstructed_v(apply_motion(h0, angular, self.LAM))
                predicted = predicted_v_change(n_tx, angular, self.LAM)[:, None] * v0.v
                assert np.max(np.abs(v1.v - predicted)) < 1e-12
                for m in sweep:
                    v1 = reconstructed_v(apply_motion(h0, m, self.LAM))
                    assert np.max(np.abs(v1.v - v0.v)) < 1e-12
                rows = bfi_sensitivity_demo(h0, sweep, self.LAM)
                assert max(r[1] for r in rows) < 1e-6

    def test_csi_column_matches_channel_phase(self):
        # the closed-form excursion -k (delta_d_r[0] + delta_d_t) is the
        # phase that apply_motion puts on H[0,0], modulo 2 pi
        rng = np.random.default_rng(54)
        k = 2 * math.pi / self.LAM
        for kind in ("radial", "angular", "mixed") * 10:
            h0 = random_channel(3, 3, rng)
            d = float(rng.uniform(-2, 2) * self.LAM) if kind != "angular" else 0.0
            ddr = tuple(d + float(x) for x in rng.uniform(-0.01, 0.01, 3)) \
                if kind == "mixed" else (d,) * 3
            dth = float(rng.uniform(0.005, 0.05)) if kind != "radial" else 0.0
            rho = tuple(float(x) for x in rng.uniform(0.5, 1.5, 3)) \
                if kind != "angular" else (1.0,) * 3
            m = MotionUpdate(delta_theta=dth, delta_d_t=d, delta_d_r=ddr, rho=rho,
                             ell=self.LAM / 2, theta=float(rng.uniform(0.3, 1.2)))
            signed = -k * (m.delta_d_r[0] + m.delta_d_t)
            h1 = apply_motion(h0, m, self.LAM)
            measured = np.angle(h1.h[0, 0] / h0.h[0, 0])
            residual = (signed - measured + math.pi) % (2 * math.pi) - math.pi
            assert abs(residual) < 1e-9
            [(csi, _)] = bfi_sensitivity_demo(h0, [m], self.LAM)
            assert csi == abs(signed)

    def test_zero_motion_gives_zero_columns(self):
        rng = np.random.default_rng(53)
        h0 = random_channel(2, 2, rng)
        rows = bfi_sensitivity_demo(
            h0, [MotionUpdate(delta_d_r=(0.0, 0.0), rho=(1.0, 1.0))] * 3, self.LAM)
        assert all(r == (0.0, 0.0) for r in rows)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_reports(a, b):
    fields = ("n_tx", "n_cols", "b_phi", "b_psi")
    arrays = ("phi_angles", "psi_angles", "phi_codes", "psi_codes")
    return (all(getattr(a, f) == getattr(b, f) for f in fields)
            and all(getattr(a, f) is None is getattr(b, f) or same_bytes(getattr(a, f),
                                                                          getattr(b, f))
                    for f in arrays))


# How a drawn channel is shaped: a zero last Tx column zeroes the last-row
# entries of the steering columns (phase_normalize's fallback); "rank1" and
# "repeated_row" are rank-deficient; "gaussian_int" holds many exact zeros.
KINDS = ("generic", "zero_last_tx", "rank1", "repeated_row", "real", "gaussian_int")


@st.composite
def channels(draw):
    n_rx, n_tx = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    kind = draw(st.sampled_from(KINDS))
    if kind == "zero_last_tx":
        h[:, -1] = 0.0
    elif kind == "rank1":
        h = np.outer(h[:, 0], h[0])
    elif kind == "repeated_row":
        h[-1] = h[0]
    elif kind == "real":
        h = h.real + 0j
    elif kind == "gaussian_int":
        h = np.round(h)
    return ChannelMatrix(h)


@st.composite
def unitaries(draw):
    """A random unitary, with a zero last-row entry in one column when drawn."""
    n = draw(st.integers(1, 8))
    v = random_unitary(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        v = zero_last_row_entry(v, a, b)
    return BeamformingMatrix(v)


def zero_last_row_entry(v, a, b):
    """v with columns a and b mixed by a unitary 2x2 so that v[-1, a] is 0."""
    v = v.copy()
    x, y = v[-1, a], v[-1, b]
    r = math.hypot(abs(x), abs(y))
    v[:, a], v[:, b] = (y * v[:, a] - x * v[:, b]) / r, \
        (x.conjugate() * v[:, a] + y.conjugate() * v[:, b]) / r
    v[-1, a] = 0.0                           # the mix leaves rounding residue there
    return v


bits = st.integers(0, 8)


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


class TestMatchesRowLoopReference:
    """Every codec step against the row-at-a-time loops it replaced, bit for bit."""

    @given(h=channels(), b_phi=bits, b_psi=bits)
    @settings(max_examples=300, deadline=None)
    def test_chain(self, h, b_phi, b_psi):
        v = svd_decompose(h)
        got, (want, _) = phase_normalize(v), ref.phase_normalize(v)
        assert same_bytes(got.v, want.v)
        n_cols = min(h.n_rx, h.n_tx)
        report = compress(got, b_phi=b_phi, b_psi=b_psi, n_cols=n_cols)
        assert same_reports(report, ref.compress(want, b_phi=b_phi, b_psi=b_psi,
                                                 n_cols=n_cols))
        assert same_bytes(decompress(report).v, ref.decompress(report).v)
        assert same_bytes(reconstructed_v(h, b_phi, b_psi).v,
                          ref.reconstructed_v(h, b_phi, b_psi).v)

    def test_every_shape(self):
        # numpy picks its complex-multiply loop from the operand shapes, so
        # each matrix size and column count is run at least once
        rng = np.random.default_rng(61)
        for n in range(1, 9):
            for v in (random_unitary(n, rng),
                      np.asfortranarray(random_unitary(n, rng)),
                      zero_last_row_entry(random_unitary(n, rng), 0, n - 1) if n > 1
                      else random_unitary(n, rng)):
                v = BeamformingMatrix(v)
                got, (want, _) = phase_normalize(v), ref.phase_normalize(v)
                assert same_bytes(got.v, want.v)
                for n_cols in range(0, n + 2):
                    for a, b in zip(extract_angles(got, n_cols),
                                    ref.extract_angles(got, n_cols)):
                        assert same_bytes(a, b)
                    report = compress(got, 6, 4, n_cols)
                    if n_cols:
                        assert same_reports(report, ref.compress(got, 6, 4, n_cols))
                    else:   # the reference's phase check takes the maximum of nothing
                        assert report.phi_angles.size == report.psi_angles.size == 0
                    assert same_bytes(decompress(report).v, ref.decompress(report).v)
            for n_rx in range(1, 9):
                h = random_channel(n_rx, n, rng)
                m = MotionUpdate(delta_theta=0.01, delta_d_t=0.02,
                                 delta_d_r=tuple(rng.uniform(-0.1, 0.1, n_rx).tolist()),
                                 rho=tuple(rng.uniform(0.1, 2.0, n_rx).tolist()))
                assert same_bytes(apply_motion(h, m, 0.06).h, ref.apply_motion(h, m, 0.06).h)
                assert same_bytes(reconstructed_v(h, 6, 4).v, ref.reconstructed_v(h, 6, 4).v)

    @given(v=unitaries(), n_cols=st.integers(0, 9), b_phi=bits, b_psi=bits)
    @settings(max_examples=200, deadline=None)
    def test_unitary_with_zero_last_row_entry(self, v, n_cols, b_phi, b_psi):
        got, (want, _) = phase_normalize(v), ref.phase_normalize(v)
        assert same_bytes(got.v, want.v)
        for a, b in zip(extract_angles(got, n_cols), ref.extract_angles(got, n_cols)):
            assert same_bytes(a, b)
        if n_cols:
            report = compress(got, b_phi, b_psi, n_cols)
            assert same_reports(report, ref.compress(got, b_phi, b_psi, n_cols))
            assert same_bytes(decompress(report).v, ref.decompress(report).v)

    @given(n_tx=st.integers(1, 8), n_cols=st.integers(0, 8), data=st.data())
    # subnormal phi: a rotation's partial product underflows to a signed zero
    @example(n_tx=3, n_cols=2, data=Drawn([-5e-324, 0.0, -5e-324], [math.pi, 1.0, 19.0]))
    # tiny angles leave signed zeros in the rebuilt matrix; extracting it at
    # n_cols=2 must give the reference's fifth phi, pi, not 0
    @example(n_tx=4, n_cols=1, data=Drawn([19.0, -1e-200, 1.0], [1e-200, -1e-310, 0.0]))
    @settings(max_examples=200, deadline=None)
    def test_decompress_any_angles(self, n_tx, n_cols, data):
        n_phi, n_psi = angle_counts(n_tx, n_cols)
        tiny = [5e-324, 1e-310, 1e-200]
        angle = st.floats(-50.0, 50.0) | st.sampled_from(
            [0.0, -0.0, math.pi, -math.pi / 2] + tiny + [-x for x in tiny])
        report = BfiReport(n_tx=n_tx, n_cols=n_cols, b_phi=0, b_psi=0,
                           phi_angles=np.array(data.draw(st.lists(angle, min_size=n_phi,
                                                                  max_size=n_phi))),
                           psi_angles=np.array(data.draw(st.lists(angle, min_size=n_psi,
                                                                  max_size=n_psi))))
        v = ref.decompress(report)
        assert same_bytes(decompress(report).v, v.v)
        for k in range(1, n_tx + 1):
            for a, b in zip(extract_angles(v, k), ref.extract_angles(v, k)):
                assert same_bytes(a, b)

    @given(h=channels(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_apply_motion(self, h, data):
        n = h.n_rx
        small = st.floats(-0.2, 0.2) | st.sampled_from([0.0, -0.0])
        m = MotionUpdate(
            delta_theta=data.draw(small), delta_d_t=data.draw(small),
            delta_d_r=tuple(data.draw(st.lists(small, min_size=n, max_size=n)))
            if data.draw(st.booleans()) else (),
            rho=tuple(data.draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
            if data.draw(st.booleans()) else (),
            theta=data.draw(st.floats(-math.pi, math.pi)))
        assert same_bytes(apply_motion(h, m, 0.06).h, ref.apply_motion(h, m, 0.06).h)
