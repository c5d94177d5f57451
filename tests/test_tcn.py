"""Autoencoder tests: layer math against brute-force evaluation, gradient
correctness, causality, training behavior, and the weight-file format."""

import math
import warnings

import numpy as np
import pytest

from nfsense.tcn import (EpochStats, TcnConfig, TcnModel, TrainConfig,
                         TrainingDiverged, evaluate_mse, forward, load_model,
                         loss_and_gradients, save_model, train, write_history_csv)
from nfsense.tcn import _col2im, _conv_b, _conv_f, _im2col

import tcn_reference as ref

TINY = TcnConfig(n_f=5, n_c=7, kernel_len=3, dilations=(1, 2),
                 bottleneck_dim=3, seed=4)


def dconv(x, w, b, chi):
    """Dilated stride-1 conv of a channel-major (C_in, B, N) array into fresh buffers."""
    (c_in, bsz, n), (c_out, l, _) = x.shape, w.shape
    return _conv_f(x, w, b, chi, 1, np.empty((l, c_in, bsz, n)), np.empty((c_out, bsz, n)))


def param_count(cfg: TcnConfig) -> int:
    """Closed-form parameter count implied by the config."""
    l, nf, nc, bd = cfg.kernel_len, cfg.n_f, cfg.n_c, cfg.bottleneck_dim
    total = 0
    in_ch = nf
    for _ in range(cfg.n_blocks):
        total += nc * l * in_ch + nc          # conv1
        total += nc * l * nc + nc             # conv2
        if in_ch != nc:
            total += nc * in_ch + nc          # residual projection
        in_ch = nc
    total += bd * l * nc + bd                 # encoder
    total += nc * l * bd + nc                 # decoder
    total += nf * nc + nf                     # output projection
    return total


def block_stack_receptive_field(cfg: TcnConfig) -> int:
    """History (in frames) visible to one output frame of the block stack."""
    return 1 + 2 * (cfg.kernel_len - 1) * sum(cfg.dilations)


def snap_to_file_precision(model: TcnModel) -> TcnModel:
    """Round weights to float32 so save/load round-trips are bitwise exact."""
    return TcnModel(config=model.config,
                    params={k: v.astype("<f4").astype(float) for k, v in model.params.items()})


def tiny_model(seed=4):
    return TcnModel.initialize(TcnConfig(n_f=5, n_c=7, kernel_len=3, dilations=(1, 2),
                                         bottleneck_dim=3, seed=seed))


def fd_gradient(model, batch, name, idx, h=1e-4):
    p = model.params[name]
    orig = p[idx]
    p[idx] = orig + h
    up, _ = loss_and_gradients(model, batch)
    p[idx] = orig - h
    dn, _ = loss_and_gradients(model, batch)
    p[idx] = orig
    return (up - dn) / (2 * h)


def fd_is_smooth(model, batch, name, idx, h=1e-4):
    """Central differences at two step sizes agree only away from ReLU kinks;
    a kink-straddling estimate measures the wrong quantity, not the gradient."""
    f1 = fd_gradient(model, batch, name, idx, h)
    f2 = fd_gradient(model, batch, name, idx, h / 4)
    return abs(f1 - f2) <= 0.02 * (abs(f1) + abs(f2)) + 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TcnConfig(dilations=())                  # no blocks
        with pytest.raises(ValueError):
            TcnConfig(dilations=(1, 3, 4, 8))        # not powers of two
        with pytest.raises(ValueError):
            TcnConfig(dilations=(8, 4, 2, 1))        # not increasing
        with pytest.raises(ValueError):
            TcnConfig(kernel_len=0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=0.999, beta2=0.9)

    def test_block_count_is_the_dilation_count(self):
        assert TcnConfig().n_blocks == 3
        assert TcnConfig(dilations=(1, 2)).n_blocks == 2
        assert TcnConfig(dilations=(2,)).n_blocks == 1

    def test_param_count_formula(self):
        for cfg in (TINY, TcnConfig()):
            params = TcnModel.initialize(cfg).params
            assert sum(v.size for v in params.values()) == param_count(cfg)

    def test_receptive_field_formula(self):
        assert block_stack_receptive_field(TcnConfig()) == 57


class TestDilatedConv:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        c_in, c_out, l, chi, n = 2, 1, 2, 2, 5
        x = rng.standard_normal((c_in, n))
        w = rng.standard_normal((c_out, l, c_in))
        b = rng.standard_normal(c_out)
        z = dconv(x[:, None], w, b, chi)
        # direct evaluation of the defining sum with zero padding
        for k in range(c_out):
            for t in range(n):
                acc = b[k]
                for i in range(l):
                    src = t - chi * i
                    if src >= 0:
                        acc += w[k, i] @ x[:, src]
                assert z[k, 0, t] == pytest.approx(acc, rel=1e-12)

    def test_kernel_one_is_projection(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6))
        w = np.zeros((3, 1, 3))
        w[:, 0, :] = np.eye(3)
        z = dconv(x[:, None], w, np.zeros(3), 4)
        assert np.allclose(z[:, 0], x)

    def test_zero_input_zero_bias(self):
        w = np.random.default_rng(9).standard_normal((4, 3, 2))
        z = dconv(np.zeros((2, 1, 8)), w, np.zeros(4), 1)
        assert np.all(z == 0.0)


def _im2col_per_tap(x, l, chi, stride, m):
    """cols[i, ., ., m'] = x[., ., stride*m' - chi*i], zero before the start, tap by tap
    through strided views."""
    cols = np.empty((l,) + x.shape[:2] + (m,), x.dtype)
    for i in range(l):
        m0 = min(-(-chi * i // stride), m)
        cols[i, :, :, :m0] = 0.0
        cols[i, :, :, m0:] = x[:, :, stride * m0 - chi * i::stride][:, :, :m - m0]
    return cols


def _col2im_per_tap(cols, chi, stride, n):
    """The transpose of _im2col_per_tap: a zero fill, then one strided add per tap."""
    l, c_in, bsz, m = cols.shape
    dx = np.zeros((c_in, bsz, n), cols.dtype)
    for i in range(l):
        m0 = min(-(-chi * i // stride), m)
        dx[:, :, stride * m0 - chi * i::stride][:, :, :m - m0] += cols[i, :, :, m0:]
    return dx


# (C_in, B, N, kernel_len, dilation, stride)
COPY_SHAPES = [
    (3, 2, 37, 2, 128, 1),     # tap 1 lies wholly in the causal padding
    (4, 1, 37, 5, 16, 1),      # odd N, B = 1, taps 3 and 4 all padding
    (5, 3, 128, 5, 8, 1),
    (2, 1, 1, 3, 1, 1),        # one frame
    (3, 2, 37, 3, 1, 2),       # stride 2 on odd N
    (2, 1, 225, 5, 1, 2),      # the 225-frame width recover runs
    (4, 3, 64, 5, 1, 2),
]


class TestCopySteps:
    """_im2col and _col2im alone, with no GEMM between, against per-tap
    strided copies, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", COPY_SHAPES)
    def test_im2col(self, dtype, shape):
        c_in, bsz, n, l, chi, stride = shape
        rng = np.random.default_rng(n + l)
        m = -(-n // stride)
        x = rng.standard_normal((c_in, bsz, n)).astype(dtype)
        x[rng.random(x.shape) < 0.2] = -0.0
        expected = _im2col_per_tap(x, l, chi, stride, m)
        for inp in (x, np.asfortranarray(x)):        # a non-contiguous input is read, not written
            cols = np.full((l, c_in, bsz, m), np.nan, dtype)
            got = _im2col(inp, l, chi, stride, cols)
            assert got.shape == (l * c_in, bsz * m) and np.shares_memory(got, cols)
            assert _bits_equal(cols, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", COPY_SHAPES)
    def test_col2im_keeps_signed_zeros(self, dtype, shape):
        c_in, bsz, n, l, chi, stride = shape
        rng = np.random.default_rng(n * l)
        m = -(-n // stride)
        base = rng.standard_normal((l, c_in, bsz, m)).astype(dtype)
        base[rng.random(base.shape) < 0.2] = -0.0
        for neg_taps in ([], [0], [l - 1], list(range(l))):   # taps that are -0.0 everywhere
            g = base.copy()
            g[neg_taps] = -0.0
            # the causal padding holds values that are never read
            for i in range(l):
                g[i, :, :, :min(-(-chi * i // stride), m)] = np.nan
            expected = _col2im_per_tap(g, chi, stride, n)
            dx = np.full((c_in, bsz, n), np.nan, dtype)
            assert _col2im(g.copy(), chi, stride, dx) is dx
            assert _bits_equal(dx, expected), neg_taps
        # every tap -0.0: the sum is +0.0 everywhere, as a zero fill then adds gives
        assert not np.signbit(dx).any()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dx_sharing_dz_memory_matches_separate_buffers(self, stride):
        rng = np.random.default_rng(23 + stride)
        c, bsz, n, l, chi = 6, 3, 37, 3, 4
        m = -(-n // stride)
        x = rng.standard_normal((c, bsz, n))
        w = rng.standard_normal((c, l, c))
        dz = rng.standard_normal((c, bsz, m))
        cols = np.empty((l, c, bsz, m))
        dx, dw, db = _conv_b(dz.copy(), x, w, chi, stride, cols, np.empty_like(x))
        # dz is the leading part of the buffer dx fills, as in the workspace
        buf = np.empty(x.size)
        dz_shared = buf[:dz.size].reshape(dz.shape)
        dz_shared[...] = dz
        got = _conv_b(dz_shared, x, w, chi, stride, cols, buf.reshape(x.shape))
        for a, b in zip(got, (dx, dw, db)):
            assert _bits_equal(a, b)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_non_contiguous_dx_rejected(self, stride):
        rng = np.random.default_rng(24)
        c, bsz, n, l = 2, 2, 9, 3
        m = -(-n // stride)
        x = rng.standard_normal((c, bsz, n))
        dx = np.empty((c, bsz, 2 * n))[:, :, ::2]
        with pytest.raises(ValueError, match="dx must be C-contiguous"):
            _conv_b(rng.standard_normal((c, bsz, m)), x, rng.standard_normal((c, l, c)), 1,
                    stride, np.empty((l, c, bsz, m)), dx)


class TestForward:
    def test_finite_and_pure(self):
        model = tiny_model()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 20))
        y1 = forward(model, x)
        y2 = forward(model, x)
        assert y1.shape == x.shape
        assert np.all(np.isfinite(y1))
        assert np.array_equal(y1, y2)

    def test_all_sentinel_input_finite(self):
        model = tiny_model()
        y = forward(model, np.full((5, 30), -1.0))
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 100.0

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            forward(tiny_model(), np.zeros((4, 10)))

    def test_causality_of_block_stack(self):
        # perturbations must never propagate backward in time, and the
        # block-stack receptive field must match the closed form
        cfg = TcnConfig(n_f=3, n_c=4, kernel_len=3, dilations=(1, 2),
                        bottleneck_dim=2, seed=1)
        model = TcnModel.initialize(cfg)
        rng = np.random.default_rng(11)
        n = 80
        x = rng.standard_normal((3, n))
        base = forward(model, x)
        probe = 40
        xp = x.copy()
        xp[:, probe] += 1.0
        diff = np.max(np.abs(forward(model, xp) - base), axis=0)
        assert np.all(diff[:probe] == 0.0)

    def test_block_stack_receptive_field_measured(self):
        from nfsense.tcn import _forward
        cfg = TcnConfig()
        model = TcnModel.initialize(cfg)
        rng = np.random.default_rng(12)
        n = 200
        x = rng.standard_normal((cfg.n_f, n))
        # run only the block stack: zero the tail by inspecting the cache
        y_base, cache = _forward(model, x[:, None])
        h_base = cache["h"][:, 0]
        probe = 30
        xp = x.copy()
        xp[:, probe] += 1.0
        _, cache_p = _forward(model, xp[:, None])
        h_pert = cache_p["h"][:, 0]
        changed = np.where(np.max(np.abs(h_pert - h_base), axis=0) > 1e-12)[0]
        assert changed[0] == probe
        assert changed[-1] - probe + 1 <= block_stack_receptive_field(cfg)
        # the farthest-reaching tap is exactly the receptive field away
        assert changed[-1] - probe + 1 == block_stack_receptive_field(cfg)


class TestGradients:
    def test_zero_loss_zero_grads(self):
        model = tiny_model()
        x = np.random.default_rng(13).standard_normal((5, 12))
        y = forward(model, x)
        mse, grads = loss_and_gradients(model, [(x, y)])
        assert mse == pytest.approx(0.0, abs=1e-24)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_batch_of_identical_pairs_matches_single(self):
        model = tiny_model()
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((5, 9)), rng.standard_normal((5, 9))
        m1, g1 = loss_and_gradients(model, [(x, y)])
        m2, g2 = loss_and_gradients(model, [(x, y), (x, y)])
        assert m1 == pytest.approx(m2, rel=1e-12)
        for k in g1:
            assert np.allclose(g1[k], g2[k], rtol=1e-10)

    def test_finite_differences_sampled(self):
        model = tiny_model()
        rng = np.random.default_rng(15)
        batch = [(rng.standard_normal((5, 10)), rng.standard_normal((5, 10)))]
        _, grads = loss_and_gradients(model, batch)
        worst, checked = 0.0, 0
        for name, p in model.params.items():
            for flat in rng.choice(p.size, size=min(4, p.size), replace=False):
                idx = np.unravel_index(flat, p.shape)
                if not fd_is_smooth(model, batch, name, idx):
                    continue
                fd = fd_gradient(model, batch, name, idx)
                rel = abs(grads[name][idx] - fd) / (abs(grads[name][idx]) + 1e-8)
                worst = max(worst, rel)
                checked += 1
        assert checked >= 40
        assert worst < 1e-4


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dataset_like_pairs(rng, n_f, widths):
    """Spectrogram-like pairs: targets in [0, 1], about 30 % sentinel columns."""
    pairs = []
    for n in widths:
        y = rng.uniform(0.0, 1.0, (n_f, n))
        x = y.copy()
        x[:, rng.random(n) < 0.3] = -1.0
        pairs.append((x, y))
    return pairs


class TestMatchesBatchFirstReference:
    """The channel-major layers against the batch-first ones they replaced
    (``tests/tcn_reference.py``, kept verbatim), bit for bit.

    The default geometry with the dataset's 128-frame pairs (64 in the mixed
    batch) is what ``nfsense train`` runs, and 37, 225 and 465 frames at
    batch 1 are what ``recover`` runs.  With n_f = n_c = 64 block 0 has no
    projection, and its residual is its input.  Bit equality rests on BLAS giving
    the same bits for one GEMM over B*N columns as for B GEMMs over N, and for
    a transposed operand as for its copy; with OpenBLAS that holds at these
    sizes but not at every size (tiny channel counts, or frame counts that
    leave partial kernel tiles, can differ in the last bit).
    """

    @staticmethod
    def _models(dtype, n_f=32):
        # two seeded initializations: the same weights in separate arrays
        return tuple(TcnModel.initialize(TcnConfig(n_f=n_f, seed=3), dtype=dtype)
                     for _ in range(2))

    # "full": the loss over the full spectrogram, the only loss there is;
    # "noproj": the n_f = n_c geometry
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_f, widths", [
        (32, [128] * 16), (32, [128] * 15), (32, [128]),
        (32, [128, 64, 128, 128, 64, 128, 64, 128]), (32, [37]), (32, [225]), (32, [465]),
        (64, [128] * 16), (64, [128]), (64, [225])],
        ids=["full-b16", "full-b15", "full-b1", "full-mixed", "full-37", "full-225",
             "full-465", "noproj-b16", "noproj-b1", "noproj-225"])
    def test_loss_gradients_forward(self, dtype, n_f, widths):
        ref_model, model = self._models(dtype, n_f)
        batch = _dataset_like_pairs(np.random.default_rng(len(widths)), n_f, widths)
        ref_loss, ref_grads = ref.loss_and_gradients(ref_model, batch)
        loss, grads = loss_and_gradients(model, batch)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert _bits_equal(grads[name], ref_grads[name]), name
        assert _bits_equal(forward(model, batch[0][0]), ref.forward(ref_model, batch[0][0]))
        assert evaluate_mse(model, batch) == ref.evaluate_mse(ref_model, batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_epoch_train(self, dtype):
        ref_model, model = self._models(dtype)
        rng = np.random.default_rng(21)
        train_set = _dataset_like_pairs(rng, 32, [128] * 17)    # batches of 16 and 1
        test_set = _dataset_like_pairs(rng, 32, [128] * 15)
        tcfg = TrainConfig(epochs=2, seed=4)
        _, ref_hist = ref.train(ref_model, train_set, test_set, tcfg)
        _, hist = train(model, train_set, test_set, tcfg)
        assert hist == ref_hist
        for name in model.params:
            assert _bits_equal(model.params[name], ref_model.params[name]), name

    def test_workspace_reuse_across_batch_sizes(self):
        # one workspace serving a large batch, then smaller and other-shaped
        # ones, gives the bits of fresh buffers every time, in both geometries;
        # every layer's im2col, whatever its l * C_in and M, shares one buffer
        from nfsense.tcn import _Workspace
        rng = np.random.default_rng(22)
        for cfg, dtype in ((TcnConfig(seed=3), np.float32), (TINY, np.float64)):
            model = TcnModel.initialize(cfg, dtype=dtype)
            ws = _Workspace(model.dtype)
            for widths in ([128] * 16, [128], [64] * 3, [37] * 4, [128] * 15):
                batch = _dataset_like_pairs(rng, cfg.n_f, widths)
                shared = loss_and_gradients(model, batch, workspace=ws)
                fresh = loss_and_gradients(model, batch)
                assert shared[0] == fresh[0]
                assert all(_bits_equal(shared[1][k], fresh[1][k]) for k in fresh[1])
                assert evaluate_mse(model, batch, workspace=ws) == evaluate_mse(model, batch)


class TestTrain:
    def test_zero_epochs_leaves_model_untouched(self):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.params.items()}
        out, history = train(model, [], (), TrainConfig(epochs=0))
        assert history == []
        assert all(np.array_equal(before[k], out.params[k]) for k in before)

    def test_scratch_grows_three_activations_per_block(self):
        # per block the backward keeps two conv activations and the block's
        # output; the im2col columns are rebuilt in one shared buffer
        from nfsense.tcn import _Workspace
        rng = np.random.default_rng(23)
        batch = _dataset_like_pairs(rng, 32, [128] * 16)
        scratch = {}
        for dilations in ((1, 2, 4, 8), (1, 2, 4, 8, 16, 32, 64, 128)):
            cfg = TcnConfig(dilations=dilations)
            ws = _Workspace(np.float32)
            loss_and_gradients(TcnModel.initialize(cfg, dtype=np.float32), batch, workspace=ws)
            scratch[len(dilations)] = sum(buf.nbytes for buf in ws._flat.values())
        activation = 64 * 16 * 128 * np.dtype(np.float32).itemsize    # n_c * B * N
        assert scratch[8] - scratch[4] <= 4 * 3 * activation

    def test_evaluation_adds_no_scratch_to_training(self):
        # evaluate_mse runs the training forward, so the buffers one
        # loss_and_gradients step filled serve it: the workspace does not grow
        from nfsense.tcn import _Workspace
        batch = _dataset_like_pairs(np.random.default_rng(24), 32, [128] * 16)
        model = TcnModel.initialize(TcnConfig(), dtype=np.float32)
        ws = _Workspace(model.dtype)
        loss_and_gradients(model, batch, workspace=ws)
        trained = {key: buf.nbytes for key, buf in ws._flat.items()}
        evaluate_mse(model, batch, workspace=ws)
        assert {key: buf.nbytes for key, buf in ws._flat.items()} == trained

    def test_single_pair_memorization(self):
        # overfit sanity oracle: one pair, 500 epochs, lr 1e-3 (float64:
        # float32 gradient noise floors an order of magnitude higher)
        cfg = TcnConfig(seed=0)
        model = TcnModel.initialize(cfg)
        rng = np.random.default_rng(17)
        # spectrogram-like target: a few smooth oscillating bins over a floor
        t = np.arange(64) * 0.25
        y = np.zeros((cfg.n_f, 64))
        y[1] = 0.5 + 0.4 * np.sin(2 * np.pi * 0.23 * t)
        y[2] = 0.3 + 0.25 * np.sin(2 * np.pi * 0.23 * t + 1.0)
        y[4] = 0.1 + 0.08 * np.sin(2 * np.pi * 0.46 * t)
        y += 0.02 * rng.uniform(0, 1, y.shape)
        x = y.copy()
        x[:, rng.random(64) < 0.3] = -1.0
        model, history = train(model, [(x, y)], (),
                               TrainConfig(epochs=500, lr=1e-3, batch_size=1, seed=0))
        assert history[-1].train_mse < 1e-4

    def test_determinism(self):
        rng = np.random.default_rng(18)
        pairs = [(rng.standard_normal((5, 12)), rng.standard_normal((5, 12)))
                 for _ in range(4)]
        hists = []
        for _ in range(2):
            model = tiny_model(seed=5)
            _, h = train(model, pairs, pairs[:1], TrainConfig(epochs=5, seed=9))
            hists.append([(e.train_mse, e.test_mse) for e in h])
        assert hists[0] == hists[1]

    def test_divergence_guard(self):
        model = tiny_model()
        rng = np.random.default_rng(19)
        y = rng.standard_normal((5, 8))
        y[2, 3] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(model, [(rng.standard_normal((5, 8)), y)], (),
                  TrainConfig(epochs=3, lr=1e-3))
        assert err.value.epoch == 0

    def test_history_csv(self, tmp_path):
        rows = [EpochStats(0, 0.5, 0.6), EpochStats(1, 0.25, 0.3)]
        path = tmp_path / "hist.csv"
        write_history_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mse,test_mse"
        assert len(lines) == 3


class TestSerialization:
    def test_round_trip_exact_after_snap(self, tmp_path):
        model = snap_to_file_precision(tiny_model())
        path = tmp_path / "model.tcn"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])
        # idempotence: a second round-trip is bitwise identical
        path2 = tmp_path / "model2.tcn"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.tcn"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(ValueError, match="bytes"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tcn"
        path.write_bytes(b"NOTAMODEL\n")
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_cross_config_shape_mismatch_is_detected(self, tmp_path):
        # weights saved for one geometry cannot be loaded into another:
        # the byte count check names expected vs found
        model = tiny_model()
        path = tmp_path / "model.tcn"
        save_model(model, path)
        text = path.read_bytes().replace(b"n_f=5", b"n_f=6")
        path.write_bytes(text)
        with pytest.raises(ValueError, match="expected"):
            load_model(path)

    @pytest.mark.parametrize("old,new,match", [
        (b"n_c=7", b"n_c=7.5", "bad config"),
        (b"kernel_len=3", b"kernel_len=three", "bad config"),
        (b"seed=4", b"seed=", "bad config"),
        (b"dilations=1,2", b"dilations=1,x", "bad config"),
        (b"dilations=1,2", b"dilations=1,3", "powers of two"),
        (b"dilations=1,2", b"dilations=2,1", "increasing"),
        (b"dilations=1,2", b"dilations=1,2,4", "weight bytes"),
        (b"n_f=5", b"n_f=0", "channel counts"),
        (b"seed=4\n", b"", "bad config: missing key 'seed'"),
        (b"seed=4\n", b"seed=4\nbogus=1\n", "unknown header key 'bogus'"),
        (b"kernel_len=3\n", b"kernel_len=3\nn_blocks=2\n", "unknown header key 'n_blocks'"),
        (b"n_c=7", b"n_c 7", "malformed line"),
    ])
    def test_bad_config_named(self, tmp_path, old, new, match):
        path = tmp_path / "model.tcn"
        save_model(tiny_model(), path)
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(ValueError, match=match) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def test_repeated_header_key_named(self, tmp_path):
        path = tmp_path / "model.tcn"
        save_model(tiny_model(), path)
        blob = path.read_bytes()
        line = blob.split(b"\n").index(b"n_c=7") + 1       # the magic is line 1
        path.write_bytes(blob.replace(b"n_c=7\n", b"n_c=7\nn_c=7\n"))
        with pytest.raises(ValueError, match=f"'n_c' repeated on lines {line} and {line + 1}") \
                as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_named(self, tmp_path, value):
        model = tiny_model()
        model.params["block1.conv2.w"][2, 1, 3] = value
        path = tmp_path / "model.tcn"
        save_model(model, path)
        with pytest.raises(ValueError, match="non-finite") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def test_signalling_nan_weight_named_without_warning(self, tmp_path):
        path = tmp_path / "model.tcn"
        save_model(tiny_model(), path)
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = np.array([0x7F800001], dtype="<u4").tobytes()
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                load_model(path)
        assert str(exc.value) == f"{path}: non-finite weight"

    def test_evaluate_mse_empty_is_nan(self):
        assert math.isnan(evaluate_mse(tiny_model(), ()))
