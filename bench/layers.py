"""Which nfsense functions the traced run wraps, and the per-layer figures
derived from their spans and boundary counts.

Layers are the package's modules: ``scene``, ``traffic``, ``sra`` and
``metrics`` (sensing), ``tcn`` (recovery), ``geometry``, ``capacity``,
``bfi`` and ``coordinator`` (analysis), and ``io`` (the text/binary readers
and writers plus the ``cli`` subcommands).  Every per-layer figure is given
for one set-up plus one pass of the workload: set-up totals are divided by
the number of set-ups, pass totals by the number of passes.
"""

from __future__ import annotations

import os

from tracer import PASS, SETUP, Tracer, calibrate

# (module name, attribute, span name) of the functions timed by span.
SPANS = (
    ("scene", "render_components", "scene.render_components"),
    ("scene", "displacement", "scene.displacement"),
    ("traffic", "generate_arrivals", "traffic.generate_arrivals"),
    ("sra", "segment", "sra.segment"),
    ("sra", "resample", "sra.resample"),
    ("sra", "stft_magnitudes", "sra.stft_magnitudes"),
    ("sra", "normalize", "sra.normalize"),
    ("sra", "extract_label_slices", "sra.extract_label_slices"),
    ("sra", "build_dataset", "sra.build_dataset"),
    ("metrics", "estimate_rate", "metrics.estimate_rate"),
    ("metrics", "spectral_entropy", "metrics.spectral_entropy"),
    ("metrics", "band_energy", "metrics.band_energy"),
    ("tcn", "loss_and_gradients", "tcn.loss_and_gradients"),
    ("tcn", "evaluate_mse", "tcn.evaluate_mse"),
    ("tcn", "train", "tcn.train"),
    ("tcn", "forward", "tcn.forward"),
    ("geometry", "vir_map", "geometry.vir_map"),
    ("geometry", "vir", "geometry.vir"),
    # coordinator imported these by name, so its own binding needs a wrapper too
    ("coordinator", "vir", "geometry.vir"),
    ("capacity", "capacity_curve", "capacity.capacity_curve"),
    ("capacity", "n_max_exact", "capacity.n_max_exact"),
    ("coordinator", "n_max_exact", "capacity.n_max_exact"),
    ("capacity", "delta_d_min_exact", "capacity.delta_d_min_exact"),
    ("bfi", "svd_decompose", "bfi.svd_decompose"),
    ("bfi", "phase_normalize", "bfi.phase_normalize"),
    ("bfi", "compress", "bfi.compress"),
    ("bfi", "decompress", "bfi.decompress"),
    ("bfi", "apply_motion", "bfi.apply_motion"),
)

# Readers and writers: (module, function, index of the path argument).
IO_FUNCS = (
    ("scene", "save_csi_csv", 1), ("scene", "load_csi_csv", 0),
    ("sra", "save_dataset", 1), ("sra", "load_dataset", 0),
    ("sra", "save_spectrogram", 1), ("sra", "load_spectrogram", 0),
    ("tcn", "save_model", 1), ("tcn", "load_model", 0),
    ("tcn", "write_history_csv", 1),
)

CLI_COMMANDS = (("cmd_simulate", "simulate"), ("cmd_build_dataset", "build-dataset"),
                ("cmd_train", "train"), ("cmd_recover", "recover"), ("cmd_eval", "eval"))

# Series evaluations inside the exact capacity searches: counted, not spanned.
COUNTED = (("capacity", "radial_series", "capacity.radial_series.calls"),
           ("capacity", "mirror_series", "capacity.mirror_series.calls"))


def tcn_forward_flops(cfg, n_frames: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of one forward pass over n_frames columns."""
    k, nf, nc, bd = cfg.kernel_len, cfg.n_f, cfg.n_c, cfg.bottleneck_dim
    macs = 0
    in_ch = nf
    for _ in range(cfg.n_blocks):
        macs += nc * k * in_ch * n_frames + nc * k * nc * n_frames
        if in_ch != nc:
            macs += nc * in_ch * n_frames
        in_ch = nc
    macs += bd * k * nc * ((n_frames + 1) // 2)      # stride-2 encoder
    macs += nc * k * bd * n_frames                    # decoder
    macs += nf * nc * n_frames                        # output projection
    return 2 * macs


def _tree_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(path) for f in files)
    return os.path.getsize(path)


def _bytes_hook(key: str, arg_index: int):
    def hook(tr: Tracer, args, kwargs, out):
        tr.count(key, _tree_bytes(args[arg_index]))
    return hook


def _hook_samples(tr, args, kwargs, out):
    tr.count("scene.samples", len(args[2]))


def _hook_arrivals(tr, args, kwargs, out):
    tr.count("traffic.arrivals", len(out))


def _hook_slices(tr, args, kwargs, out):
    tr.count("sra.slices", len(out))
    tr.count("sra.nonsparse_slices", sum(1 for s in out if s.non_sparse))


def _hook_frames(tr, args, kwargs, out):
    flags = out[1]
    tr.count("sra.frames", flags.size)
    tr.count("sra.no_data_frames", int(flags.sum()))


def _hook_normalize(tr, args, kwargs, out):
    if out.no_data_cols.size and out.no_data_cols.all():
        tr.count("sra.all_no_data_links")


def _hook_labels(tr, args, kwargs, out):
    tr.count("sra.label_frames", sum(lab.shape[1] for lab in out))
    tr.count("sra.label_candidate_frames", args[0].n_t)


def _hook_train(tr, args, kwargs, out):
    model, train_set = args[0], args[1]
    test_set = args[2] if len(args) > 2 else kwargs.get("test_set", ())
    tcfg = args[3] if len(args) > 3 else kwargs["tcfg"]
    cfg = model.config
    # loss_and_gradients: forward + input and weight gradients = 3 forwards
    per_epoch = sum(3 * tcn_forward_flops(cfg, x.shape[1]) for x, _ in train_set)
    per_epoch += sum(tcn_forward_flops(cfg, x.shape[1]) for x, _ in test_set)
    tr.count("tcn.train.gflop", tcfg.epochs * per_epoch / 1e9)


def _hook_forward(tr, args, kwargs, out):
    tr.count("tcn.forward.frames", out.shape[1])


def _hook_cells(tr, args, kwargs, out):
    tr.count("geometry.cells", out.nx * out.ny)


def _hook_register(tr, args, kwargs, out):
    tr.count("coordinator.admitted", int(out.admitted))


_HOOKS = {
    "scene.render_components": _hook_samples,
    "traffic.generate_arrivals": _hook_arrivals,
    "sra.segment": _hook_slices,
    "sra.stft_magnitudes": _hook_frames,
    "sra.normalize": _hook_normalize,
    "sra.extract_label_slices": _hook_labels,
    "tcn.train": _hook_train,
    "tcn.forward": _hook_forward,
    "geometry.vir_map": _hook_cells,
}


def make_tracer(mods: dict) -> Tracer:
    """A tracer with every layer boundary registered (not yet installed)."""
    tr = Tracer()
    for mod, attr, name in SPANS:
        tr.add(mods[mod], attr, name, hook=_HOOKS.get(name))
    for mod, attr, arg_index in IO_FUNCS:
        tr.add(mods[mod], attr, f"io.{attr}", hook=_bytes_hook(f"io.{attr}.bytes", arg_index))
    for attr, sub in CLI_COMMANDS:
        tr.add(mods["cli"], attr, f"cli.{sub}")
    for mod, attr, key in COUNTED:
        tr.add(mods[mod], attr, key, count_only=True)
    tr.add(mods["coordinator"].Registry, "register", "coordinator.register",
           hook=_hook_register)
    return tr


def derive(tr: Tracer, n_setups: int, n_passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass."""
    stats = tr.per_name()
    per = {SETUP: n_setups, PASS: n_passes}

    def span(name: str, field: str) -> float:
        return sum(stats[(ph, name)][field] / n for ph, n in per.items()
                   if n and (ph, name) in stats)

    def count(key: str) -> float:
        return sum(tr.counts[(ph, key)] / n for ph, n in per.items() if n)

    def frac(num: str, den: str) -> float:
        total = sum(tr.counts[(ph, den)] for ph in per)
        return sum(tr.counts[(ph, num)] for ph in per) / total if total else 0.0

    out: dict[str, float] = {}
    for _, _, name in SPANS:
        out[f"{name}.self_s"] = span(name, "self_s")
    for _, attr, _ in IO_FUNCS:
        out[f"io.{attr}.self_s"] = span(f"io.{attr}", "self_s")
        out[f"io.{attr}.bytes"] = count(f"io.{attr}.bytes")
    for _, sub in CLI_COMMANDS:
        out[f"cli.{sub}.s"] = span(f"cli.{sub}", "total_s")
    for _, _, key in COUNTED:
        out[key] = count(key)
    for key in ("scene.samples", "traffic.arrivals", "sra.slices", "sra.frames",
                "sra.all_no_data_links", "tcn.train.gflop", "tcn.forward.frames",
                "geometry.cells"):
        out[key] = count(key)
    out["sra.nonsparse_slice_frac"] = frac("sra.nonsparse_slices", "sra.slices")
    out["sra.no_data_frac"] = frac("sra.no_data_frames", "sra.frames")
    out["sra.label_frame_frac"] = frac("sra.label_frames", "sra.label_candidate_frames")
    calls = span("sra.resample", "calls")
    out["sra.resample.per_link_s"] = out["sra.resample.self_s"] / calls if calls else 0.0
    out["tcn.loss_and_gradients.calls"] = span("tcn.loss_and_gradients", "calls")
    out["geometry.vir.calls"] = span("geometry.vir", "calls")
    out["bfi.matrices"] = span("bfi.svd_decompose", "calls")
    out["coordinator.register.self_s"] = span("coordinator.register", "self_s")
    out["coordinator.register.calls"] = span("coordinator.register", "calls")
    registered = sum(stats[(ph, "coordinator.register")]["calls"] for ph in per
                     if (ph, "coordinator.register") in stats)
    admitted = sum(tr.counts[(ph, "coordinator.admitted")] for ph in per)
    out["coordinator.admit_frac"] = admitted / registered if registered else 0.0
    out["trace.unattributed_s"] = span("setup", "self_s") + span("pass", "self_s")

    span_cost, count_cost = calibrate()
    n_spans = sum(s["calls"] / per[ph] for (ph, name), s in stats.items()
                  if per[ph] and name not in ("setup", "pass"))
    n_counted = sum(count(key) for _, _, key in COUNTED)
    round_s = span("setup", "total_s") + span("pass", "total_s")
    overhead = n_spans * span_cost + n_counted * count_cost
    out["trace.overhead_frac"] = overhead / max(round_s - overhead, 1e-12)
    return out
