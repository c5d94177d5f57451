"""Batch-first reference for the TCN's layers, loss and training loop.

The layer primitives, ``_forward``, ``forward``, ``_backward``,
``_masked_columns``, ``_shape_groups``, ``loss_and_gradients``,
``evaluate_mse`` and ``train`` below are the batch-first (B, C, N)
implementation that ``nfsense.tcn`` used before it went channel-major,
copied verbatim (only the relative ``sra`` import is made absolute).
``tests/test_tcn.py`` checks the package against them bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from nfsense.tcn import EpochStats, TcnModel, TrainConfig, TrainingDiverged


def _dconv_f(x: np.ndarray, w: np.ndarray, b: np.ndarray, chi: int):
    """Causal dilated conv: z[., k, n] = sum_i w[k, i, :] . x[., :, n - chi*i] + b[k]."""
    bsz, c_in, n = x.shape
    c_out, l, _ = w.shape
    pad = (l - 1) * chi
    xp = np.zeros((bsz, c_in, n + pad), dtype=x.dtype)
    xp[:, :, pad:] = x
    cols = np.empty((bsz, l, c_in, n), dtype=x.dtype)
    for i in range(l):
        cols[:, i] = xp[:, :, pad - i * chi: pad - i * chi + n]
    cols2 = cols.reshape(bsz, l * c_in, n)
    z = np.matmul(w.reshape(c_out, l * c_in), cols2) + b[:, None]
    return z, (cols2, x.shape, chi)


def _dconv_b(dz: np.ndarray, cache, w: np.ndarray):
    cols2, x_shape, chi = cache
    bsz, c_in, n = x_shape
    c_out, l, _ = w.shape
    dw = np.tensordot(dz, cols2, axes=([0, 2], [0, 2])).reshape(c_out, l, c_in)
    db = dz.sum(axis=(0, 2))
    dcols = np.matmul(w.reshape(c_out, l * c_in).T, dz).reshape(bsz, l, c_in, n)
    pad = (l - 1) * chi
    dxp = np.zeros((bsz, c_in, n + pad), dtype=dz.dtype)
    for i in range(l):
        dxp[:, :, pad - i * chi: pad - i * chi + n] += dcols[:, i]
    return dxp[:, :, pad:], dw, db


def _sconv_f(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Causal stride-2 conv: z[., k, m] = sum_i w[k, i, :] . x[., :, 2m - i] + b[k]."""
    bsz, c_in, n = x.shape
    c_out, l, _ = w.shape
    pad = l - 1
    m = (n + 1) // 2
    xp = np.zeros((bsz, c_in, n + pad), dtype=x.dtype)
    xp[:, :, pad:] = x
    cols = np.empty((bsz, l, c_in, m), dtype=x.dtype)
    for i in range(l):
        cols[:, i] = xp[:, :, pad - i: pad - i + 2 * m - 1: 2]
    cols2 = cols.reshape(bsz, l * c_in, m)
    z = np.matmul(w.reshape(c_out, l * c_in), cols2) + b[:, None]
    return z, (cols2, x.shape)


def _sconv_b(dz: np.ndarray, cache, w: np.ndarray):
    cols2, x_shape = cache
    bsz, c_in, n = x_shape
    c_out, l, _ = w.shape
    m = (n + 1) // 2
    dw = np.tensordot(dz, cols2, axes=([0, 2], [0, 2])).reshape(c_out, l, c_in)
    db = dz.sum(axis=(0, 2))
    dcols = np.matmul(w.reshape(c_out, l * c_in).T, dz).reshape(bsz, l, c_in, m)
    pad = l - 1
    dxp = np.zeros((bsz, c_in, n + pad), dtype=dz.dtype)
    for i in range(l):
        dxp[:, :, pad - i: pad - i + 2 * m - 1: 2] += dcols[:, i]
    return dxp[:, :, pad:], dw, db


def _upsample_f(z: np.ndarray, n_out: int) -> np.ndarray:
    """Nearest-neighbor x2 upsampling trimmed to n_out columns."""
    return np.repeat(z, 2, axis=2)[:, :, :n_out]


def _upsample_b(du: np.ndarray, m: int) -> np.ndarray:
    bsz, c, n_out = du.shape
    dz = np.zeros((bsz, c, m), dtype=du.dtype)
    dz[:, :, : (n_out + 1) // 2] += du[:, :, 0::2]
    dz[:, :, : n_out // 2] += du[:, :, 1::2]
    return dz


def _proj_f(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(w, x) + b[:, None]


def _proj_b(dz: np.ndarray, x: np.ndarray, w: np.ndarray):
    dw = np.tensordot(dz, x, axes=([0, 2], [0, 2]))
    return np.matmul(w.T, dz), dw, dz.sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# network forward/backward

def _forward(model: TcnModel, x: np.ndarray, need_cache: bool):
    """Batched network forward on (B, N_F, N_T) input."""
    cfg = model.config
    p = model.params
    cache: dict[str, object] = {}
    h = x
    for bi in range(cfg.n_blocks):
        chi = cfg.dilations[bi]
        z1, c1 = _dconv_f(h, p[f"block{bi}.conv1.w"], p[f"block{bi}.conv1.b"], chi)
        a1 = np.maximum(z1, 0.0)
        z2, c2 = _dconv_f(a1, p[f"block{bi}.conv2.w"], p[f"block{bi}.conv2.b"], chi)
        a2 = np.maximum(z2, 0.0)
        if f"block{bi}.proj.w" in p:
            res = _proj_f(h, p[f"block{bi}.proj.w"], p[f"block{bi}.proj.b"])
        else:
            res = h
        out = a2 + res
        if need_cache:
            cache[f"b{bi}"] = (h, c1, z1, a1, c2, z2)
        h = out
    n = h.shape[2]
    ze, ce = _sconv_f(h, p["enc.w"], p["enc.b"])
    ae = np.maximum(ze, 0.0)
    up = _upsample_f(ae, n)
    zd, cd = _dconv_f(up, p["dec.w"], p["dec.b"], 1)
    ad = np.maximum(zd, 0.0)
    y = _proj_f(ad, p["out.w"], p["out.b"])
    if need_cache:
        cache["tail"] = (h, ce, ze, ae, up, cd, zd, ad)
    return y, cache


def forward(model: TcnModel, x: np.ndarray) -> np.ndarray:
    """Map an N_F x N_T input (sentinels included) to an N_F x N_T output."""
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[0] != model.config.n_f:
        raise ValueError(f"input must be {model.config.n_f} x N_T, got {x.shape}")
    y, _ = _forward(model, x[None], need_cache=False)
    return y[0]


def _backward(model: TcnModel, dy: np.ndarray, cache,
              grads: dict[str, np.ndarray]) -> None:
    cfg = model.config
    p = model.params
    h_blocks, ce, ze, ae, up, cd, zd, ad = cache["tail"]
    dx_out, dw, db = _proj_b(dy, ad, p["out.w"])
    grads["out.w"] += dw
    grads["out.b"] += db
    dzd = dx_out * (zd > 0.0)
    dup, dw, db = _dconv_b(dzd, cd, p["dec.w"])
    grads["dec.w"] += dw
    grads["dec.b"] += db
    dae = _upsample_b(dup, ae.shape[2])
    dze = dae * (ze > 0.0)
    dh, dw, db = _sconv_b(dze, ce, p["enc.w"])
    grads["enc.w"] += dw
    grads["enc.b"] += db

    for bi in reversed(range(cfg.n_blocks)):
        h_in, c1, z1, a1, c2, z2 = cache[f"b{bi}"]
        da2 = dh
        dres = dh
        dz2 = da2 * (z2 > 0.0)
        da1, dw, db = _dconv_b(dz2, c2, p[f"block{bi}.conv2.w"])
        grads[f"block{bi}.conv2.w"] += dw
        grads[f"block{bi}.conv2.b"] += db
        dz1 = da1 * (z1 > 0.0)
        dh_conv, dw, db = _dconv_b(dz1, c1, p[f"block{bi}.conv1.w"])
        grads[f"block{bi}.conv1.w"] += dw
        grads[f"block{bi}.conv1.b"] += db
        if f"block{bi}.proj.w" in p:
            dh_res, dw, db = _proj_b(dres, h_in, p[f"block{bi}.proj.w"])
            grads[f"block{bi}.proj.w"] += dw
            grads[f"block{bi}.proj.b"] += db
        else:
            dh_res = dres
        dh = dh_conv + dh_res


def _masked_columns(x: np.ndarray) -> np.ndarray:
    from nfsense.sra import NO_DATA_SENTINEL
    return np.all(x == NO_DATA_SENTINEL, axis=-2)


def _shape_groups(batch: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Group pair indices by spectrogram shape so each group stacks cleanly."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (x, _) in enumerate(batch):
        groups.setdefault(np.shape(x), []).append(i)
    return groups


def loss_and_gradients(model: TcnModel, batch: Sequence[tuple[np.ndarray, np.ndarray]],
                       masked_loss_only: bool = False) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-pair MSE over the batch and its gradients.

    The loss covers the entire spectrogram (masked and unmasked columns
    alike); ``masked_loss_only`` restricts it to sentinel columns of the
    input, for ablations.  Equal-shape pairs are processed as one stacked
    forward/backward pass.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    grads = model.zeros_like_params()
    total = 0.0
    inv_b = 1.0 / len(batch)
    dtype = model.dtype
    for shape, indices in _shape_groups(batch).items():
        xs = np.stack([np.asarray(batch[i][0], dtype=dtype) for i in indices])
        ys = np.stack([np.asarray(batch[i][1], dtype=dtype) for i in indices])
        y, cache = _forward(model, xs, need_cache=True)
        diff = y - ys
        if masked_loss_only:
            cols = _masked_columns(xs)                       # (B, N)
            diff = diff * cols[:, None, :]
            denom = np.maximum(cols.sum(axis=1) * shape[0], 1.0)
        else:
            denom = np.full(len(indices), float(shape[0] * shape[1]))
        per_pair = (diff * diff).sum(axis=(1, 2)) / denom
        total += float(per_pair.sum()) * inv_b
        scale = (2.0 * inv_b / denom).astype(dtype)
        dy = scale[:, None, None] * diff
        _backward(model, dy, cache, grads)
    return total, grads


def evaluate_mse(model: TcnModel, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Mean per-pair full-spectrogram MSE with frozen weights."""
    if not pairs:
        return math.nan
    total = 0.0
    dtype = model.dtype
    for shape, indices in _shape_groups(pairs).items():
        xs = np.stack([np.asarray(pairs[i][0], dtype=dtype) for i in indices])
        ys = np.stack([np.asarray(pairs[i][1], dtype=dtype) for i in indices])
        y, _ = _forward(model, xs, need_cache=False)
        d = y - ys
        total += float((d * d).mean(axis=(1, 2)).sum())
    return total / len(pairs)


def train(model: TcnModel, train_set: Sequence[tuple[np.ndarray, np.ndarray]],
          test_set: Sequence[tuple[np.ndarray, np.ndarray]] = (),
          tcfg: TrainConfig = TrainConfig()) -> tuple[TcnModel, list[EpochStats]]:
    """Adam with gradient-norm clipping and per-epoch seeded shuffling.

    Returns the trained model (the input instance, mutated in place) and the
    per-epoch loss history on the train and held-out sets.
    """
    if not train_set and tcfg.epochs > 0:
        raise ValueError("training set must be non-empty")
    m_state = model.zeros_like_params()
    v_state = model.zeros_like_params()
    step = 0
    history: list[EpochStats] = []
    for epoch in range(tcfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((tcfg.seed, epoch)))
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [train_set[int(i)] for i in order[lo:lo + tcfg.batch_size]]
            mse, grads = loss_and_gradients(model, batch)
            if not math.isfinite(mse):
                raise TrainingDiverged(epoch)
            epoch_loss += mse
            n_batches += 1
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if tcfg.grad_clip > 0 and gnorm > tcfg.grad_clip:
                scale = tcfg.grad_clip / gnorm
                for g in grads.values():
                    g *= scale
            step += 1
            bc1 = 1.0 - tcfg.beta1 ** step
            bc2 = 1.0 - tcfg.beta2 ** step
            for name, g in grads.items():
                m_state[name] = tcfg.beta1 * m_state[name] + (1.0 - tcfg.beta1) * g
                v_state[name] = tcfg.beta2 * v_state[name] + (1.0 - tcfg.beta2) * g * g
                m_hat = m_state[name] / bc1
                v_hat = v_state[name] / bc2
                model.params[name] -= tcfg.lr * m_hat / (np.sqrt(v_hat) + tcfg.eps)
        train_mse = epoch_loss / max(n_batches, 1)
        test_mse = evaluate_mse(model, test_set)
        history.append(EpochStats(epoch=epoch, train_mse=train_mse, test_mse=test_mse))
    return model, history
