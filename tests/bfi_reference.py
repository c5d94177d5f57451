"""Row-at-a-time reference for the BFI codec.

``phase_normalize``, ``_quantize``, ``extract_angles``, ``compress``,
``decompress``, ``apply_motion`` and ``reconstructed_v`` below are the
row-at-a-time implementation that ``nfsense.bfi`` started from, copied
verbatim.  ``tests/test_bfi.py`` checks the package against them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from nfsense.bfi import (BeamformingMatrix, BfiReport, ChannelMatrix, MotionUpdate,
                         svd_decompose)


def phase_normalize(v: BeamformingMatrix) -> tuple[BeamformingMatrix, tuple[int, ...]]:
    """Rotate each column so the last-row entry is real and non-negative.

    Returns the normalized matrix and the indices of columns whose last-row
    entry was zero; those take their phase reference from the last non-zero
    entry instead (a zero entry is already real, so the compression contract
    still holds).
    """
    mat = v.v.copy()
    n = mat.shape[0]
    flagged = []
    for c in range(mat.shape[1]):
        col = mat[:, c]
        z = col[n - 1]
        if abs(z) < 1e-15:
            flagged.append(c)
            nz = np.nonzero(np.abs(col) >= 1e-15)[0]
            if nz.size == 0:
                continue
            z = col[nz[-1]]
        mat[:, c] = col * (z.conjugate() / abs(z))
    return BeamformingMatrix(mat), tuple(flagged)


def _quantize(angles: np.ndarray, bits: int, span: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quantization of angles in [0, span) to 2^bits uniform cells."""
    cells = 2 ** bits
    width = span / cells
    codes = np.floor(np.mod(angles, span) / width).astype(int)
    codes = np.clip(codes, 0, cells - 1)
    return codes, (codes + 0.5) * width


def extract_angles(v: BeamformingMatrix, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Givens-angle extraction from a phase-normalized unitary matrix.

    Column-major elimination: for each stage i, the phases of rows i..M-2 of
    column i are removed (phi angles), then real rotations on row pairs
    (i, l) for l = i+1..M-1 zero the sub-diagonal entries (psi angles).
    """
    w = v.v.copy()
    m = w.shape[0]
    stages = min(n_cols, m - 1)
    phis: list[float] = []
    psis: list[float] = []
    for i in range(stages):
        for l in range(i, m - 1):
            phi = math.atan2(w[l, i].imag, w[l, i].real) % (2.0 * math.pi)
            phis.append(phi)
            w[l, :] *= np.exp(-1j * phi)
        for l in range(i + 1, m):
            psi = math.atan2(w[l, i].real, w[i, i].real)
            psis.append(psi)
            c, s = math.cos(psi), math.sin(psi)
            row_i = w[i, :].copy()
            row_l = w[l, :].copy()
            w[i, :] = c * row_i + s * row_l
            w[l, :] = -s * row_i + c * row_l
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
    if np.max(np.abs(last_row.imag)) > 1e-9:
        raise ValueError("input is not phase-normalized: last row has imaginary parts")
    phis, psis = extract_angles(v, n_cols)
    phi_codes = psi_codes = None
    if b_phi:
        phi_codes, phis = _quantize(phis, b_phi, 2.0 * math.pi)
    if b_psi:
        psi_codes, psis = _quantize(psis, b_psi, math.pi / 2.0)
    return BfiReport(n_tx=n_tx, n_cols=n_cols, b_phi=b_phi, b_psi=b_psi,
                     phi_angles=phis, psi_angles=psis,
                     phi_codes=phi_codes, psi_codes=psi_codes)


def decompress(report: BfiReport) -> BeamformingMatrix:
    """Rebuild the beamforming matrix from an angle report.

    The result is exactly unitary (product of rotations and phase diagonals)
    and matches the original up to quantization error, with unreported
    columns completed to an orthonormal basis.
    """
    m = report.n_tx
    stages = min(report.n_cols, m - 1)
    w = np.eye(m, dtype=complex)
    phi_slices: list[np.ndarray] = []
    psi_slices: list[np.ndarray] = []
    pos_phi = pos_psi = 0
    for i in range(stages):
        n_i = m - 1 - i
        phi_slices.append(np.asarray(report.phi_angles[pos_phi:pos_phi + n_i]))
        psi_slices.append(np.asarray(report.psi_angles[pos_psi:pos_psi + n_i]))
        pos_phi += n_i
        pos_psi += n_i
    for i in reversed(range(stages)):
        psis = psi_slices[i]
        for l in reversed(range(i + 1, m)):
            psi = psis[l - i - 1]
            c, s = math.cos(psi), math.sin(psi)
            row_i = w[i, :].copy()
            row_l = w[l, :].copy()
            # transpose of the extraction rotation
            w[i, :] = c * row_i - s * row_l
            w[l, :] = s * row_i + c * row_l
        phases = np.ones(m, dtype=complex)
        for l in range(i, m - 1):
            phases[l] = np.exp(1j * phi_slices[i][l - i])
        w = phases[:, None] * w
    return BeamformingMatrix(w)


def apply_motion(h0: ChannelMatrix, m: MotionUpdate, lambda_m: float) -> ChannelMatrix:
    """Apply the diagonal motion model: H1 = Q_rx H0 Q_tx."""
    n_rx, n_tx = h0.h.shape
    rho = m.rho if m.rho else tuple(1.0 for _ in range(n_rx))
    ddr = m.delta_d_r if m.delta_d_r else tuple(0.0 for _ in range(n_rx))
    if len(rho) != n_rx or len(ddr) != n_rx:
        raise ValueError(f"rho/delta_d_r must have {n_rx} entries, got {len(rho)}/{len(ddr)}")
    k = 2.0 * math.pi / lambda_m
    q_rx = np.array([r * np.exp(-1j * k * d) for r, d in zip(rho, ddr)])
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
    v = svd_decompose(h)
    v_hat, _ = phase_normalize(v)
    return decompress(compress(v_hat, b_phi=b_phi, b_psi=b_psi,
                               n_cols=min(h.n_rx, h.n_tx)))
