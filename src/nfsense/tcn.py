"""From-scratch temporal convolutional autoencoder.

Causal dilated 1-D convolutions arranged in residual blocks, a stride-2
convolutional bottleneck with a nearest-neighbor-upsampling decoder, and a
1x1 output projection.  Forward, reverse-mode gradients, Adam training, and
a binary weight format are all implemented here on plain numpy arrays.

Weights are float32 on disk.  In memory the model's dtype is the compute
precision: float64 by default (gradient checks), float32 for ``nfsense
train``.  Activations are channel-major (C, B, N), so each convolution and
each 1x1 projection over a batch is one im2col GEMM through ``_conv_f`` /
``_conv_b``: a projection is the 1-tap case, whose im2col is one contiguous
copy of its input.  There is one residual block per dilation.
In that layout a stride-1 tap of the im2col is the input's flat array
shifted by the tap's delay, so it is one contiguous copy, and the col2im
that sums the column gradient back is one contiguous add per tap.
``train`` keeps its scratch, evaluation included, in one workspace with a
single im2col buffer: the backward caches each conv layer's input, not its
columns, and rebuilds them (the same bits) when it needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import kvtext

MAGIC = "TCNAE1"

# Extra init gain on convolution kernels; see TcnModel.initialize.
_CONV_INIT_GAIN = 0.1


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TcnConfig:
    """Network geometry: channels, kernel, bottleneck, dilations (one block each)."""

    n_f: int = 32
    n_c: int = 64
    kernel_len: int = 5
    dilations: tuple[int, ...] = (1, 2, 4)
    bottleneck_dim: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        d = self.dilations
        if not d or any(chi < 1 or chi & (chi - 1) for chi in d):
            raise ValueError(f"dilations must be one or more powers of two, got {d}")
        if any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError(f"dilations must be strictly increasing, got {d}")
        if self.kernel_len < 1:
            raise ValueError(f"kernel_len must be >= 1, got {self.kernel_len}")
        if min(self.n_f, self.n_c, self.bottleneck_dim) < 1:
            raise ValueError("channel counts must be >= 1")

    @property
    def n_blocks(self) -> int:
        return len(self.dilations)


@dataclass(frozen=True)
class TrainConfig:
    """Adam, clipping and batching settings; the loss is always the full-spectrogram MSE."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 16
    epochs: int = 30
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.lr > 0):
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not (0.0 < self.beta1 < self.beta2 < 1.0):
            raise ValueError(f"need 0 < beta1 < beta2 < 1, got {self.beta1}, {self.beta2}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


def _param_spec(cfg: TcnConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; also the on-disk layer order."""
    spec: list[tuple[str, tuple[int, ...]]] = []
    in_ch = cfg.n_f
    for b in range(cfg.n_blocks):
        spec.append((f"block{b}.conv1.w", (cfg.n_c, cfg.kernel_len, in_ch)))
        spec.append((f"block{b}.conv1.b", (cfg.n_c,)))
        spec.append((f"block{b}.conv2.w", (cfg.n_c, cfg.kernel_len, cfg.n_c)))
        spec.append((f"block{b}.conv2.b", (cfg.n_c,)))
        if in_ch != cfg.n_c:
            spec.append((f"block{b}.proj.w", (cfg.n_c, in_ch)))
            spec.append((f"block{b}.proj.b", (cfg.n_c,)))
        in_ch = cfg.n_c
    spec.append(("enc.w", (cfg.bottleneck_dim, cfg.kernel_len, cfg.n_c)))
    spec.append(("enc.b", (cfg.bottleneck_dim,)))
    spec.append(("dec.w", (cfg.n_c, cfg.kernel_len, cfg.bottleneck_dim)))
    spec.append(("dec.b", (cfg.n_c,)))
    spec.append(("out.w", (cfg.n_f, cfg.n_c)))
    spec.append(("out.b", (cfg.n_f,)))
    return spec


@dataclass
class TcnModel:
    config: TcnConfig
    params: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def initialize(cls, cfg: TcnConfig, dtype=np.float64) -> "TcnModel":
        """Kaiming-uniform weights (fan-in scaled), seeded from the config.

        Convolution kernels carry an extra 0.1 gain: at full Kaiming scale
        the residual stack compounds activation variance block by block and
        Adam stalls on a high plateau (the single-pair memorization check
        fails by two orders of magnitude).  Starting the conv branches small
        puts the network near an identity-like map through the projections.

        ``dtype`` selects the compute precision: float64 (default) for
        gradient-check fidelity, float32 to halve training memory traffic.
        """
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x7C4)))
        params: dict[str, np.ndarray] = {}
        for name, shape in _param_spec(cfg):
            if name.endswith(".w"):
                fan_in = int(np.prod(shape[1:]))
                bound = math.sqrt(6.0 / fan_in)
                if ".conv" in name or name.startswith(("enc", "dec")):
                    bound *= _CONV_INIT_GAIN
                params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
            else:
                w_shape = dict(_param_spec(cfg))[name[:-2] + ".w"]
                fan_in = int(np.prod(w_shape[1:]))
                bound = 1.0 / math.sqrt(fan_in)
                params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return cls(config=cfg, params=params)

    def zeros_like_params(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype


# ---------------------------------------------------------------------------
# layer primitives (forward + explicit backward).  Activations are
# channel-major (C, B, N): a convolution or projection over the whole batch
# is one 2-D GEMM with K = l * C_in, and its weight gradient is one GEMM over
# all B * N columns.  Callers pass the output buffers (see _Workspace).

class _Workspace:
    """Named flat scratch buffers, reused by every step of one ``train`` call.

    ``get`` returns the leading part of a buffer in the requested shape, so a
    smaller batch (15, or 1) reuses the buffers sized for the largest one and
    a training step allocates no large arrays once the first step has run.
    """

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self._flat: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(key)
        if buf is None or buf.size < size:
            buf = self._flat[key] = np.empty(size, dtype or self.dtype)
        return buf[:size].reshape(shape)


def _taps(l: int, chi: int, stride: int, m: int):
    """Per tap i: first output column m0 whose input index stride*m0 - chi*i
    is >= 0 (earlier columns read the causal zero padding), and that index."""
    for i in range(l):
        m0 = min(-(-chi * i // stride), m)
        yield i, m0, stride * m0 - chi * i


def _flat(a: np.ndarray, name: str) -> np.ndarray:
    """The flat view of ``a``, for writes that must reach it: a non-contiguous
    array would give a copy, so it is rejected."""
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous, got strides {a.strides}")
    return a.reshape(-1)


def _im2col(x: np.ndarray, l: int, chi: int, stride: int, cols: np.ndarray) -> np.ndarray:
    """Write the causal taps of x (C_in, B, N) into cols (l, C_in, B, M): cols[i, ., ., m]
    = x[., ., stride*m - chi*i], zero before the start.  Returns (l*C_in, B*M).

    At stride 1 (M = N) tap i is x's flat array shifted by m0 = min(chi*i, N):
    one contiguous copy, after which the first m0 entries of every (c, b) row,
    which wrapped in from the row before, are overwritten by the causal zeros.
    A stride-2 tap is copied through a strided view: with an odd N (``recover``
    runs 225- and 465-frame spectrograms) its rows do not tile one flat shift.
    """
    c_in, bsz, _ = x.shape
    m = cols.shape[3]
    if stride == 1:
        x_flat, tap_flat = x.reshape(-1), _flat(cols, "cols").reshape(l, -1)
        for i, m0, _ in _taps(l, chi, stride, m):
            tap_flat[i, m0:] = x_flat[:x_flat.size - m0]
            cols[i, :, :, :m0] = 0.0
    else:
        for i, m0, s in _taps(l, chi, stride, m):
            cols[i, :, :, :m0] = 0.0
            cols[i, :, :, m0:] = x[:, :, s::stride][:, :, :m - m0]
    return cols.reshape(l * c_in, bsz * m)


def _col2im(cols: np.ndarray, chi: int, stride: int, dx: np.ndarray) -> np.ndarray:
    """Sum a column gradient cols (l, C_in, B, M) onto dx (C_in, B, N), the
    transpose of _im2col: tap by tap in order, onto +0.0, each dx[., ., n] adds
    cols[i, ., ., m] where stride*m - chi*i = n.  Overwrites cols' causal padding.

    At stride 1, tap 0 writes dx as cols[0] + 0.0 (so -0.0 becomes +0.0, as
    a zero fill and an add would make it) and every later tap is one contiguous
    add of its flat array shifted by m0, after its causal padding, which wraps
    in from the row before, is set to +0.0.  That changes no bit: under
    round-to-nearest a sum that starts at +0.0 is never -0.0, and adding +0.0
    to anything else leaves it as it is.
    """
    l, _, _, m = cols.shape
    dx_flat = _flat(dx, "dx")
    if stride == 1:
        tap_flat = _flat(cols, "cols").reshape(l, -1)
        taps = _taps(l, chi, stride, m)
        next(taps)                               # tap 0 has m0 = 0
        np.add(cols[0], 0.0, out=dx)
        for i, m0, _ in taps:
            cols[i, :, :, :m0] = 0.0
            dx_flat[:dx_flat.size - m0] += tap_flat[i, m0:]
    else:
        dx.fill(0.0)
        for i, m0, s in _taps(l, chi, stride, m):
            dx[:, :, s::stride][:, :, :m - m0] += cols[i, :, :, m0:]
    return dx


def _conv_f(x: np.ndarray, w: np.ndarray, b: np.ndarray, chi: int, stride: int,
            cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Causal dilated, strided conv of x (C_in, B, N) into out (C_out, B, M),
    M = ceil(N / stride): out[k, ., m] = sum_i w[k, i, :] . x[:, ., stride*m - chi*i] + b[k].

    ``cols`` (l, C_in, B, M) is scratch for the im2col copy of x.  A 1x1
    projection is the l = 1 case: its weight (C_out, C_in) is passed as
    (C_out, 1, C_in), and its im2col is one contiguous copy of x with x's
    layout, so the GEMM gives the bits it gives on x itself.
    """
    c_out, l, c_in = w.shape
    z2 = out.reshape(c_out, -1)
    np.matmul(w.reshape(c_out, l * c_in), _im2col(x, l, chi, stride, cols), out=z2)
    z2 += b[:, None]
    return out


def _bias_grad(dz: np.ndarray) -> np.ndarray:
    """Sum of dz (C, B, N) over B and N: pairwise over N, then sequential over
    B, the order (and so the bits) of ``sum(axis=(0, 2))`` on a (B, C, N) array."""
    return np.cumsum(dz.sum(axis=2), axis=1)[:, -1]


def _conv_b(dz: np.ndarray, x: np.ndarray, w: np.ndarray, chi: int, stride: int,
            cols: np.ndarray, dx: np.ndarray | None):
    """Gradients (dx, dw, db) of _conv_f(x, w, ...) from dz (C_out, B, M).

    The im2col of x is rebuilt in ``cols`` (l, C_in, B, M), which then holds
    its gradient, and _col2im sums that onto ``dx``.  ``dx`` is an output
    buffer and may share memory with ``dz``: dz is fully read before dx is
    written.  The col2im writes through dx's flat view, so a dx that is not
    C-contiguous raises ValueError.  With ``dx`` None the input gradient is
    skipped and returned as None.
    """
    c_out, l, c_in = w.shape
    dz2 = dz.reshape(c_out, -1)
    cols2 = _im2col(x, l, chi, stride, cols)
    dw = (dz2 @ cols2.T).reshape(w.shape)
    db = _bias_grad(dz)
    if dx is None:
        return None, dw, db
    np.matmul(w.reshape(c_out, l * c_in).T, dz2, out=cols2)
    return _col2im(cols, chi, stride, dx), dw, db


# ---------------------------------------------------------------------------
# network forward/backward

def _forward(model: TcnModel, x: np.ndarray, ws: _Workspace | None = None):
    """Batched network forward on channel-major (N_F, B, N_T) input.

    The output and every cached array live in ``ws``, and every layer builds
    its im2col in the one ``cols`` buffer.  Each layer keeps its activation
    and each block its output, so the backward finds every conv layer's input.
    """
    cfg = model.config
    p = model.params
    ws = ws or _Workspace(x.dtype)
    cache: dict[str, object] = {}
    _, bsz, n = x.shape

    def conv(layer: str, inp: np.ndarray, chi: int = 1, stride: int = 1,
             proj_key: str | None = None) -> np.ndarray:
        # a projection writes into proj_key, without ReLU; its 2-D weight is 1-tap
        w = p[f"{layer}.w"]
        w = w.reshape(len(w), -1, len(inp))
        c_out, l, c_in = w.shape
        m = -(-inp.shape[2] // stride)
        z = _conv_f(inp, w, p[f"{layer}.b"], chi, stride, ws.get("cols", (l, c_in, bsz, m)),
                    ws.get(proj_key or f"{layer}.act", (c_out, bsz, m)))
        a = z if proj_key else np.maximum(z, 0.0, out=z)
        cache[layer] = (inp, a)
        return a

    h = x
    for bi, chi in enumerate(cfg.dilations):
        a1 = conv(f"block{bi}.conv1", h, chi)
        a2 = conv(f"block{bi}.conv2", a1, chi)
        key = f"h{bi}"
        res = conv(f"block{bi}.proj", h, proj_key=key) if f"block{bi}.proj.w" in p else h
        h = np.add(a2, res, out=ws.get(key, (cfg.n_c, bsz, n)))
    ae = conv("enc", h, stride=2)
    up = ws.get("up", (ae.shape[0], bsz, n))
    up[:, :, 0::2] = ae                      # nearest-neighbour x2, trimmed to n
    up[:, :, 1::2] = ae[:, :, :n // 2]
    ad = conv("dec", up)
    y = conv("out", ad, proj_key="y")
    cache["h"] = h
    return y, cache


def forward(model: TcnModel, x: np.ndarray) -> np.ndarray:
    """Map an N_F x N_T input (sentinels included) to an N_F x N_T output."""
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[0] != model.config.n_f:
        raise ValueError(f"input must be {model.config.n_f} x N_T, got {x.shape}")
    y, _ = _forward(model, x[:, None])
    return y[:, 0].copy()


def _backward(model: TcnModel, dy: np.ndarray, cache, grads: dict[str, np.ndarray],
              ws: _Workspace) -> None:
    """Accumulate into ``grads`` the gradients for output gradient dy (N_F, B, N).

    The input-gradient chain ping-pongs between two workspace buffers, and
    every layer rebuilds its im2col from its cached input into the forward's
    one ``cols`` buffer, which then takes the im2col gradient.  Nothing reads
    the gradient of the network input, so block 0 computes none.
    """
    cfg = model.config
    p = model.params
    n = dy.shape[2]
    bufs = ["grad0", "grad1"]

    def relu_b(da: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # a = max(z, 0), so a > 0 exactly where z > 0 (NaN included)
        mask = np.greater(a, 0.0, out=ws.get("mask", a.shape, bool))
        return np.multiply(da, mask, out=da if out is None else out)

    def conv_b(layer: str, dz: np.ndarray, dx_key: str | None, chi: int = 1,
               stride: int = 1) -> np.ndarray | None:
        x, _ = cache[layer]
        g = grads[f"{layer}.w"]
        w = p[f"{layer}.w"].reshape(len(g), -1, len(x))
        _, l, c_in = w.shape
        dx, dw, db = _conv_b(dz, x, w, chi, stride, ws.get("cols", (l, c_in) + dz.shape[1:]),
                             ws.get(dx_key, x.shape) if dx_key else None)
        g += dw.reshape(g.shape)
        grads[f"{layer}.b"] += db
        return dx

    _, ad = cache["dec"]
    dad = conv_b("out", dy, bufs[0])
    _, ae = cache["enc"]
    dup = conv_b("dec", relu_b(dad, ad), bufs[1])
    dae = ws.get(bufs[0], ae.shape)          # transpose of nearest-neighbour x2
    dae.fill(0.0)
    dae[:, :, : (n + 1) // 2] += dup[:, :, 0::2]
    dae[:, :, : n // 2] += dup[:, :, 1::2]
    dh = conv_b("enc", relu_b(dae, ae), bufs[1], stride=2)

    for bi, chi in reversed(list(enumerate(cfg.dilations))):
        _, a1 = cache[f"block{bi}.conv1"]
        _, a2 = cache[f"block{bi}.conv2"]
        # dh, also the residual branch's gradient, is in bufs[1]; bufs[0] is free
        dz2 = relu_b(dh, a2, ws.get(bufs[0], dh.shape))
        da1 = conv_b(f"block{bi}.conv2", dz2, bufs[0], chi)
        dh_conv = conv_b(f"block{bi}.conv1", relu_b(da1, a1), bufs[0] if bi else None, chi)
        if not bi:
            break
        dh = np.add(dh_conv, dh, out=dh_conv)   # only block 0 can have a projection
        bufs.reverse()
    if "block0.proj.w" in p:
        conv_b("block0.proj", dh, None)


def _shape_groups(batch: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Group pair indices by spectrogram shape so each group stacks cleanly."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (x, _) in enumerate(batch):
        groups.setdefault(np.shape(x), []).append(i)
    return groups


def _stack_group(pairs, indices: list[int], shape: tuple[int, int], ws: _Workspace):
    """Inputs of one shape group channel-major (N_F, B, N), targets batch-first."""
    xs = ws.get("xs", (shape[0], len(indices), shape[1]))
    ys = ws.get("ys", (len(indices),) + shape)
    for k, i in enumerate(indices):
        xs[:, k] = pairs[i][0]
        ys[k] = pairs[i][1]
    return xs, ys


def loss_and_gradients(model: TcnModel, batch: Sequence[tuple[np.ndarray, np.ndarray]], *,
                       workspace: _Workspace | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-pair MSE over the batch and its gradients.

    The loss covers the entire spectrogram: the columns the input hides
    behind the sentinel and those it shows alike.  Equal-shape pairs are
    processed as one stacked forward/backward pass.  ``workspace`` lends the
    scratch buffers (``train`` passes one for all its steps); by default a
    fresh one is used.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    ws = workspace or _Workspace(model.dtype)
    grads = model.zeros_like_params()
    total = 0.0
    inv_b = 1.0 / len(batch)
    dtype = model.dtype
    for shape, indices in _shape_groups(batch).items():
        xs, ys = _stack_group(batch, indices, shape, ws)
        y, cache = _forward(model, xs, ws)
        diff = np.subtract(y.transpose(1, 0, 2), ys, out=ws.get("diff", ys.shape))
        denom = np.full(len(indices), float(shape[0] * shape[1]))
        per_pair = (diff * diff).sum(axis=(1, 2)) / denom
        total += float(per_pair.sum()) * inv_b
        scale = (2.0 * inv_b / denom).astype(dtype)
        dy = np.multiply(scale[:, None], diff.transpose(1, 0, 2), out=ws.get("dy", y.shape))
        _backward(model, dy, cache, grads, ws)
    return total, grads


def evaluate_mse(model: TcnModel, pairs: Sequence[tuple[np.ndarray, np.ndarray]], *,
                 workspace: _Workspace | None = None) -> float:
    """Mean per-pair full-spectrogram MSE with frozen weights."""
    if not pairs:
        return math.nan
    ws = workspace or _Workspace(model.dtype)
    total = 0.0
    for shape, indices in _shape_groups(pairs).items():
        xs, ys = _stack_group(pairs, indices, shape, ws)
        y, _ = _forward(model, xs, ws)
        d = np.subtract(y.transpose(1, 0, 2), ys, out=ws.get("diff", ys.shape))
        total += float((d * d).mean(axis=(1, 2)).sum())
    return total / len(pairs)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    test_mse: float


def train(model: TcnModel, train_set: Sequence[tuple[np.ndarray, np.ndarray]],
          test_set: Sequence[tuple[np.ndarray, np.ndarray]] = (),
          tcfg: TrainConfig = TrainConfig()) -> tuple[TcnModel, list[EpochStats]]:
    """Adam with gradient-norm clipping and per-epoch seeded shuffling.

    Returns the trained model (the input instance, mutated in place) and the
    per-epoch loss history on the train and held-out sets.
    """
    if not train_set and tcfg.epochs > 0:
        raise ValueError("training set must be non-empty")
    ws = _Workspace(model.dtype)
    m_state = model.zeros_like_params()
    v_state = model.zeros_like_params()
    b1, b2 = tcfg.beta1, tcfg.beta2
    step = 0
    history: list[EpochStats] = []
    for epoch in range(tcfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((tcfg.seed, epoch)))
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [train_set[int(i)] for i in order[lo:lo + tcfg.batch_size]]
            mse, grads = loss_and_gradients(model, batch, workspace=ws)
            if not math.isfinite(mse):
                raise TrainingDiverged(epoch)
            epoch_loss += mse
            n_batches += 1
            gnorm = math.sqrt(sum(float(np.sum(np.multiply(g, g, out=ws.get("adam_a", g.shape))))
                                  for g in grads.values()))
            if tcfg.grad_clip > 0 and gnorm > tcfg.grad_clip:
                scale = tcfg.grad_clip / gnorm
                for g in grads.values():
                    g *= scale
            step += 1
            bc1 = 1.0 - b1 ** step
            bc2 = 1.0 - b2 ** step
            for name, g in grads.items():
                # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
                # p -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps): the same bits
                m, v = m_state[name], v_state[name]
                a, b = ws.get("adam_a", g.shape), ws.get("adam_b", g.shape)
                m *= b1
                m += np.multiply(1.0 - b1, g, out=a)
                v *= b2
                np.multiply(1.0 - b2, g, out=b)
                v += np.multiply(b, g, out=b)
                np.divide(m, bc1, out=a)
                a *= tcfg.lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += tcfg.eps
                model.params[name] -= np.divide(a, b, out=a)
        train_mse = epoch_loss / max(n_batches, 1)
        test_mse = evaluate_mse(model, test_set, workspace=ws)
        history.append(EpochStats(epoch=epoch, train_mse=train_mse, test_mse=test_mse))
    return model, history


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    kvtext.write_csv(path, ("epoch", "train_mse", "test_mse"),
                     ((row.epoch, f"{row.train_mse:.9e}", f"{row.test_mse:.9e}")
                      for row in history))


# ---------------------------------------------------------------------------
# serialization: magic, config block, then little-endian float32 weights

def save_model(model: TcnModel, path) -> None:
    cfg = model.config
    header_lines = [MAGIC, *kvtext.lines("", cfg), "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header_lines) + "\n").encode("ascii"))
        for name, _ in _param_spec(cfg):
            fh.write(model.params[name].astype("<f4").tobytes())


def load_model(path) -> TcnModel:
    """Rebuild a model from disk; weights come back as float32-exact float64.

    The header holds exactly the TcnConfig fields.  A bad header (a missing,
    repeated, unknown or non-integer field, a geometry TcnConfig rejects), a
    wrong weight count or a NaN/inf weight raises a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip().decode("ascii", errors="replace")
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header: list[str] = []
        for line in iter(fh.readline, b""):
            text = line.strip().decode("ascii", errors="replace")
            if text == "end_header":
                break
            header.append(text)
        else:
            raise ValueError(f"{path}: truncated header")
        kv = kvtext.parse_lines(header, path, first_line=2)   # line 1 is the magic
        unknown = [key for key in kv if key not in {f.name for f in fields(TcnConfig)}]
        if unknown:
            raise ValueError(f"{path}: unknown header key {unknown[0]!r}")
        cfg = kvtext.build(TcnConfig, kv, "", path, required=True)
        blob = fh.read()
    spec = _param_spec(cfg)
    expected = sum(int(np.prod(shape)) for _, shape in spec)
    if len(blob) != 4 * expected:
        raise ValueError(f"{path}: expected {4 * expected} weight bytes "
                         f"({expected} float32), found {len(blob)}")
    stored = np.frombuffer(blob, dtype="<f4")
    # before the cast, which warns on a signalling NaN
    if not np.isfinite(stored).all():
        raise ValueError(f"{path}: non-finite weight")
    flat = stored.astype(float)
    params: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in spec:
        size = int(np.prod(shape))
        params[name] = flat[pos:pos + size].reshape(shape).copy()
        pos += size
    return TcnModel(config=cfg, params=params)
