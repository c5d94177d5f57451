"""Reference text writers for the numeric tables.

``save_csi_csv``, ``save_sample_times``, ``save_spectrogram``,
``save_dataset`` and ``save_raster`` below are the implementations the
package used before its writers formatted each distinct value once, copied
verbatim: ``np.savetxt`` for dataset pairs and per-row f-string loops for
the rest.  ``tests/test_textio.py`` checks the package against them byte for
byte.
"""

from __future__ import annotations

import os

import numpy as np


def save_csi_csv(series, path) -> None:
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        for t, v in zip(series.timestamps, series.values):
            fh.write(f"{t:.9f},{v.real:.12e},{v.imag:.12e}\n")


def save_sample_times(st, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# duration_s {st.duration:.6f}\n")
        for t in st.times:
            fh.write(f"{t:.6f}\n")


def save_spectrogram(spec, path) -> None:
    """Text format: header ``N_F N_T t0_s frame_dt_s``, rows, then flag row."""
    frame_dt = float(spec.frame_times[1] - spec.frame_times[0]) if spec.n_t > 1 else 0.0
    t0 = float(spec.frame_times[0]) if spec.n_t else 0.0
    with open(path, "w") as fh:
        fh.write(f"{spec.n_f} {spec.n_t} {t0:.9f} {frame_dt:.9f}\n")
        for row in spec.data:
            fh.write(" ".join(f"{v:.9e}" for v in row) + "\n")
        fh.write(" ".join("1" if f else "0" for f in spec.no_data_cols) + "\n")


def save_dataset(ds, out_dir) -> None:
    """Numbered pair files NNNN.x / NNNN.y under train/ and test/ subdirs."""
    for name, pairs in (("train", ds.train), ("test", ds.test)):
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        for i, (x, y) in enumerate(pairs):
            np.savetxt(os.path.join(sub, f"{i:04d}.x"), x, fmt="%.9e")
            np.savetxt(os.path.join(sub, f"{i:04d}.y"), y, fmt="%.9e")


def save_raster(path, values: np.ndarray, x0: float, y0: float,
                dx: float, dy: float) -> None:
    """Write a raster as text: header ``# x0 y0 dx dy nx ny`` then row-major values."""
    arr = np.asarray(values)
    ny, nx = arr.shape
    with open(path, "w") as fh:
        fh.write(f"# {x0:.10g} {y0:.10g} {dx:.10g} {dy:.10g} {nx} {ny}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")
