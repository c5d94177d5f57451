"""Reference text writers for the numeric tables, and the raster reader.

``save_csi_csv``, ``save_spectrogram``, ``save_labels`` and ``save_raster``
below are the implementations the package used before its writers formatted
each distinct value once, copied verbatim: ``np.savetxt`` for a dataset's
label files and per-row f-string loops for the rest.  The spectrogram
header alone is the current one, which carries ``df_hz``, and
``save_labels`` keeps only the ``.y`` half of the older pair format, since a
dataset no longer stores its inputs as tables.  ``tests/test_textio.py``
checks the package against them byte for byte.

``load_raster`` reads what ``nfsense.geometry.save_raster`` writes.  The
package writes rasters and reads none; the raster, CLI and text-format
tests read them back with it.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np


def save_csi_csv(series, path) -> None:
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        for t, v in zip(series.timestamps, series.values):
            fh.write(f"{t:.9f},{v.real:.12e},{v.imag:.12e}\n")


def save_spectrogram(spec, path) -> None:
    """Text format: header ``N_F N_T t0_s frame_dt_s df_hz``, rows, then flag row."""
    with open(path, "w") as fh:
        fh.write(f"{spec.n_f} {spec.n_t} {spec.t0_s:.9f} {spec.frame_dt_s:.9f} "
                 f"{float(spec.df_hz)!r}\n")
        for row in spec.data:
            fh.write(" ".join(f"{v:.9e}" for v in row) + "\n")
        fh.write(" ".join("1" if f else "0" for f in spec.no_data_cols) + "\n")


def save_labels(ds, out_dir) -> None:
    """Numbered label files KKKK.y under train/ and test/ subdirs."""
    for name, labels in (("train", ds.train_labels), ("test", ds.test_labels)):
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        for k, (y, _) in enumerate(labels):
            np.savetxt(os.path.join(sub, f"{k:04d}.y"), y, fmt="%.9e")


def save_raster(path, values: np.ndarray, x0: float, y0: float,
                dx: float, dy: float) -> None:
    """Write a raster as text: header ``# x0 y0 dx dy nx ny`` then row-major values."""
    arr = np.asarray(values)
    ny, nx = arr.shape
    with open(path, "w") as fh:
        fh.write(f"# {x0:.10g} {y0:.10g} {dx:.10g} {dy:.10g} {nx} {ny}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")


def load_raster(path) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """Read a raster written by ``save_raster``; returns (values, (x0, y0, dx, dy)).

    Malformed headers, cell sizes that are not finite and > 0, shape mismatches
    and NaN cells raise ``ValueError`` naming the file; ``inf`` cells are kept.
    """
    with open(path) as fh:
        header = fh.readline()
        parts = header[1:].split()
        if not header.startswith("#") or len(parts) < 6:
            raise ValueError(f"{path}: raster header needs '# x0 y0 dx dy nx ny', got {header!r}")
        try:
            x0, y0, dx, dy = (float(p) for p in parts[:4])
            nx, ny = int(parts[4]), int(parts[5])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")      # an input with no values only warns
                values = np.loadtxt(fh, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if np.isnan(values).any():
        raise ValueError(f"{path}: NaN value")
    if not (nx >= 1 and ny >= 1 and all(math.isfinite(d) and d > 0 for d in (dx, dy))):
        raise ValueError(f"{path}: need nx, ny >= 1 and finite dx, dy > 0, got {parts[:6]}")
    if values.shape != (ny, nx):
        raise ValueError(f"{path}: expected {ny}x{nx} raster, got {values.shape}")
    return values, (x0, y0, dx, dy)
