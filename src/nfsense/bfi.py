"""Beamforming-feedback compression and the motion-sensitivity analysis.

The downlink channel matrix is decomposed as H = U S V*; the transmit
beamforming matrix V is phase-normalized (last row real, non-negative),
converted into Givens-rotation angles, quantized, and reconstructed on the
AP side.  A diagonal motion model Q_rx H Q_tx then shows that the
reconstructed matrix responds only to changes of the subject-to-AP
direction, not to radial subject-UE motion.

Both directions of the codec work on a numpy array of all N_tx columns:
:func:`extract_angles` applies the phase steps and Givens rotations that
:func:`decompress` undoes in reverse order, so every complex product runs
in numpy and only real scalars (angles, their sines and cosines, the
quantizer) are Python floats.  Angles come from ``math.atan2``, whose bits
``np.arctan2`` does not always match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex MIMO channel for one subcarrier: N_rx rows x N_tx columns."""

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-D and non-empty, got shape {h.shape}")
        if not np.isfinite(h.view(float)).all():
            raise ValueError("channel matrix entries must be finite")

    @property
    def n_rx(self) -> int:
        return self.h.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class BeamformingMatrix:
    """Unitary N_tx x N_tx beamforming matrix."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        n = v.shape[0]
        if v.ndim != 2 or v.shape != (n, n):
            raise ValueError(f"beamforming matrix must be square, got {v.shape}")
        gram = v.conj().T @ v
        gram.ravel()[:: n + 1] -= 1.0            # VᴴV − I, in place
        err = abs(gram).max()
        if err > 1e-6:
            raise ValueError(f"matrix is not unitary (max deviation {err:.3g})")


@dataclass(frozen=True)
class MotionUpdate:
    """Diagonal channel update caused by a small subject displacement.

    delta_theta: change of the subject->AP direction; delta_d_t: common
    Tx-side path change; delta_d_r: per-Rx-antenna path changes; rho:
    per-Rx amplitude ratios; ell: Tx antenna spacing; theta: subject->AP
    direction angle.
    """

    delta_theta: float = 0.0
    delta_d_t: float = 0.0
    delta_d_r: tuple[float, ...] = ()
    rho: tuple[float, ...] = ()
    ell: float = 0.05
    theta: float = math.pi / 4

    def __post_init__(self) -> None:
        if any(r <= 0 for r in self.rho):
            raise ValueError(f"rho entries must be > 0, got {self.rho}")
        if not (self.ell > 0):
            raise ValueError(f"ell must be > 0, got {self.ell}")


def svd_decompose(h: ChannelMatrix) -> BeamformingMatrix:
    """V of H = U S V* (LAPACK, via numpy), columns by non-increasing singular value.

    V is all that compressed beamforming feedback carries.
    """
    _, _, vh = np.linalg.svd(h.h)
    return BeamformingMatrix(vh.conj().T)


def phase_normalize(v: BeamformingMatrix) -> BeamformingMatrix:
    """Rotate each column so the last-row entry is real and non-negative.

    A column whose last-row entry is zero takes its phase reference from its
    last non-zero entry instead (a zero entry is already real, so the
    compression contract still holds).
    """
    mat = v.v
    # (1, n), not (n,): numpy multiplies a (1, 1) by a (1,) in another loop,
    # whose complex products round differently
    z = mat[-1:].copy()
    # abs() of one complex is libm hypot; np.abs over an array may round otherwise
    mags = [abs(x) for x in z[0].tolist()]
    for c in [c for c, r in enumerate(mags) if r < 1e-15]:
        # a unitary column always holds an entry of magnitude >= 1e-15
        z[0, c] = mat[np.flatnonzero(np.abs(mat[:, c]) >= 1e-15)[-1], c]
        mags[c] = abs(z[0, c])
    return BeamformingMatrix(mat * (z.conj() / mags))


@dataclass(frozen=True)
class BfiReport:
    """Angle-encoded beamforming feedback for one subcarrier.

    The angles are exact, or the midpoints of their quantizer cells when
    :func:`compress` was given bit widths.
    """

    n_tx: int
    n_cols: int
    phi_angles: np.ndarray
    psi_angles: np.ndarray

    def __post_init__(self) -> None:
        n_phi, n_psi = angle_counts(self.n_tx, self.n_cols)
        if len(self.phi_angles) != n_phi or len(self.psi_angles) != n_psi:
            raise ValueError(
                f"angle counts {len(self.phi_angles)}/{len(self.psi_angles)} do not match "
                f"the Givens decomposition of a {self.n_tx}x{self.n_cols} matrix "
                f"({n_phi} phi, {n_psi} psi)")


def angle_counts(n_tx: int, n_cols: int) -> tuple[int, int]:
    """Number of (phi, psi) angles in the Givens decomposition."""
    n = sum(n_tx - 1 - i for i in range(min(n_cols, n_tx - 1)))
    return n, n                              # one psi per phi


def _quantize(angles: np.ndarray, bits: int, span: float) -> np.ndarray:
    """Midpoint quantization of angles in [0, span) to 2^bits uniform cells."""
    cells = 2 ** bits
    width = span / cells
    codes = [min(max(math.floor(a % span / width), 0), cells - 1) for a in angles.tolist()]
    return np.array([(c + 0.5) * width for c in codes])


def extract_angles(v: BeamformingMatrix, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Givens-angle extraction from a phase-normalized unitary matrix.

    Column-major elimination: for each stage i, the phases of rows i..M-2 of
    column i are removed (phi angles), then real rotations on row pairs
    (i, l) for l = i+1..M-1 zero the sub-diagonal entries (psi angles).
    Every column is carried, so each row product has the shape that
    :func:`decompress` and the row-at-a-time codec use.
    """
    w = v.v.copy()
    m = w.shape[0]
    phis: list[float] = []
    psis: list[float] = []
    for i in range(min(n_cols, m - 1)):
        for l in range(i, m - 1):
            phi = math.atan2(w[l, i].imag, w[l, i].real) % (2.0 * math.pi)
            phis.append(phi)
            w[l] *= np.exp(-1j * phi)
        for l in range(i + 1, m):
            psi = math.atan2(w[l, i].real, w[i, i].real)
            psis.append(psi)
            c, s = math.cos(psi), math.sin(psi)
            # the rotation decompress undoes by its transpose
            w[i], w[l] = c * w[i] + s * w[l], -s * w[i] + c * w[l]
    return np.array(phis), np.array(psis)


def compress(v: BeamformingMatrix, b_phi: int = 6, b_psi: int = 4,
             n_cols: int | None = None) -> BfiReport:
    """Convert a beamforming matrix into an angle report.

    The input must be phase-normalized (last row real, non-negative); pass it
    through :func:`phase_normalize` first.  ``n_cols`` defaults to the full
    matrix width; pass min(n_rx, n_tx) to compress only the steering columns.
    """
    mat = v.v
    n_tx = mat.shape[0]
    if n_cols is None:
        n_cols = mat.shape[1]
    last_row = mat[n_tx - 1, :n_cols]
    if (abs(last_row.imag) > 1e-9).any():
        raise ValueError("input is not phase-normalized: last row has imaginary parts")
    phis, psis = extract_angles(v, n_cols)
    if b_phi:
        phis = _quantize(phis, b_phi, 2.0 * math.pi)
    if b_psi:
        psis = _quantize(psis, b_psi, math.pi / 2.0)
    return BfiReport(n_tx=n_tx, n_cols=n_cols, phi_angles=phis, psi_angles=psis)


def decompress(report: BfiReport) -> BeamformingMatrix:
    """Rebuild the beamforming matrix from an angle report.

    The result is exactly unitary (product of rotations and phase diagonals)
    and matches the original up to quantization error, with unreported
    columns completed to an orthonormal basis.
    """
    m = report.n_tx
    stages = min(report.n_cols, m - 1)
    phis = np.asarray(report.phi_angles, dtype=float).tolist()
    psis = np.asarray(report.psi_angles, dtype=float).tolist()
    w = np.eye(m, dtype=complex)
    pos = len(phis)
    for i in reversed(range(stages)):
        pos -= m - 1 - i                     # stage i's angles start here
        for l in reversed(range(i + 1, m)):
            psi = psis[pos + l - i - 1]
            c, s = math.cos(psi), math.sin(psi)
            # transpose of the extraction rotation
            w[i], w[l] = c * w[i] - s * w[l], s * w[i] + c * w[l]
        # rows above i are still identity rows, which a unit factor leaves alone;
        # the last row's factor is exp(0) = 1
        phases = np.exp([1j * phi for phi in phis[pos:pos + m - 1 - i]] + [0j])
        w[i:] = phases[:, None] * w[i:]
    return BeamformingMatrix(w)


def apply_motion(h0: ChannelMatrix, m: MotionUpdate, lambda_m: float) -> ChannelMatrix:
    """Apply the diagonal motion model: H1 = Q_rx H0 Q_tx."""
    n_rx, n_tx = h0.h.shape
    rho = m.rho if m.rho else tuple(1.0 for _ in range(n_rx))
    ddr = m.delta_d_r if m.delta_d_r else tuple(0.0 for _ in range(n_rx))
    if len(rho) != n_rx or len(ddr) != n_rx:
        raise ValueError(f"rho/delta_d_r must have {n_rx} entries, got {len(rho)}/{len(ddr)}")
    k = 2.0 * math.pi / lambda_m
    q_rx = np.asarray(rho, dtype=float) * np.exp(-1j * k * np.asarray(ddr, dtype=float))
    tx_phase = [m.delta_d_t - kk * m.ell * m.delta_theta * math.sin(m.theta)
                for kk in range(n_tx)]
    q_tx = np.exp(-1j * k * np.array(tx_phase))
    return ChannelMatrix(q_rx[:, None] * h0.h * q_tx[None, :])


def reconstructed_v(h: ChannelMatrix, b_phi: int = 0, b_psi: int = 0) -> BeamformingMatrix:
    """Full UE-side + AP-side chain: SVD, normalize, compress, decompress.

    Only the min(N_rx, N_tx) steering columns are fed back, as in 802.11
    compressed beamforming; the SVD may pick any basis of the null space,
    so the AP fills in the remaining columns from the reported angles.
    """
    v_hat = phase_normalize(svd_decompose(h))
    return decompress(compress(v_hat, b_phi=b_phi, b_psi=b_psi, n_cols=min(h.n_rx, h.n_tx)))


def predicted_v_change(n_tx: int, m: MotionUpdate, lambda_m: float) -> np.ndarray:
    """Closed-form left diagonal factor relating the reconstructed matrices.

    After a motion step, the new reconstructed matrix equals
    diag(e^{i 2 pi (N_tx - k) ell dtheta sin(theta) / lambda}) times the old
    one, k = 1..N_tx: only the direction change enters.
    """
    k = 2.0 * math.pi / lambda_m
    shift = m.ell * m.delta_theta * math.sin(m.theta)
    return np.exp(1j * k * shift * (n_tx - 1 - np.arange(n_tx)))


def bfi_sensitivity_demo(h0: ChannelMatrix, motions: Sequence[MotionUpdate],
                         lambda_m: float, b_phi: int = 0, b_psi: int = 0) -> list[tuple[float, float]]:
    """Per-step (CSI phase change, reconstructed-BFI change) series.

    Each motion is applied to ``h0`` on its own. CSI change is the H[0,0]
    phase excursion |k (delta_d_r[0] + delta_d_t)|, k = 2 pi / lambda,
    taken in closed form from the diagonal motion model (rho > 0 leaves
    the phase alone, and the Tx term at antenna 0 has no direction part),
    so it is exact at any step size rather than recovered by unwrapping
    wrapped samples. BFI change is the Frobenius distance between the
    reconstructed beamforming matrices.
    """
    k = 2.0 * math.pi / lambda_m
    v0 = reconstructed_v(h0, b_phi, b_psi)
    rows: list[tuple[float, float]] = []
    for m in motions:
        v1 = reconstructed_v(apply_motion(h0, m, lambda_m), b_phi, b_psi)
        ddr0 = m.delta_d_r[0] if m.delta_d_r else 0.0
        rows.append((abs(k * (ddr0 + m.delta_d_t)), float(np.linalg.norm(v1.v - v0.v))))
    return rows
