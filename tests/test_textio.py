"""Numeric-table text: the writers against their reference, and the readers fuzzed.

Every writer must give the bytes of ``textio_reference`` (``np.savetxt`` and
per-row f-strings) on drawn arrays: -0.0 next to 0.0, subnormals, +-1e+-300,
the -1 sentinel, heavy repeats, one-column and empty shapes, and inf/nan.
Every reader must reproduce a written file byte for byte after load and
save, and must reject a truncated line, a non-numeric token, a ragged row
or a NaN with a ValueError that names the file.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textio_reference as ref
from nfsense.geometry import load_raster, save_raster
from nfsense.kvtext import format_rows, format_table
from nfsense.scene import CsiSeries, load_csi_csv, save_csi_csv
from nfsense.sra import (NO_DATA_SENTINEL, Dataset, Spectrogram, load_dataset,
                         load_spectrogram, save_dataset, save_spectrogram)
from nfsense.traffic import SampleTimes, save_sample_times

SPECIAL = (0.0, -0.0, NO_DATA_SENTINEL, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308)
NON_FINITE = (math.inf, -math.inf, math.nan, -math.nan)
NOT_NUMBERS = ("abc", "1.0.0", "--1", "1e", "e5", "0x10", "nan0", "+-1", "1d5", ".", "-")


def values(non_finite=False):
    return st.one_of(st.sampled_from(SPECIAL + (NON_FINITE if non_finite else ())),
                     st.floats(allow_nan=non_finite, allow_infinity=non_finite))


# Doubles above about 1.797693135e308 round, at 10 significant digits, to
# text above the largest double, which reads back as inf; round trips draw
# below 1e308.
readable = st.one_of(st.sampled_from(SPECIAL[:-1]), st.floats(-1e308, 1e308))


@st.composite
def tables(draw, cells=values(), min_side=0, shape=None):
    """A 2-D float array whose cells come from a small pool, so values repeat."""
    rows, cols = shape or (draw(st.integers(min_side, 6)), draw(st.integers(min_side, 6)))
    pool = draw(st.lists(cells, min_size=1, max_size=40))
    flat = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=float).reshape(rows, cols)


@st.composite
def datasets(draw, cells=values(), min_side=0):
    """Runs of masked copies of one label, as build_dataset makes them, and odd pairs."""
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        y = draw(tables(cells, min_side))
        if draw(st.booleans()):                # an unrelated input
            pairs.append((draw(tables(cells, shape=y.shape)), y))
            continue
        for _ in range(draw(st.integers(1, 3))):
            x = y.copy()
            x[:, draw(st.lists(st.booleans(), min_size=y.shape[1],
                               max_size=y.shape[1]))] = NO_DATA_SENTINEL
            pairs.append((x, y.copy()))
    n_train = draw(st.integers(0, len(pairs)))
    return Dataset(train=tuple(pairs[:n_train]), test=tuple(pairs[n_train:]))


@st.composite
def spectrograms(draw, cells=values(), min_side=0):
    """Frame times are seconds from the start of a recording: t0 >= 0."""
    data = draw(tables(cells, min_side))
    n_t = data.shape[1]
    t0 = draw(st.floats(0.0, 1e4))
    frame_dt = draw(st.floats(1e-3, 10.0))
    flags = draw(st.lists(st.booleans(), min_size=n_t, max_size=n_t))
    return Spectrogram(data=data, no_data_cols=np.array(flags, dtype=bool),
                       frame_times=t0 + np.arange(n_t) * frame_dt)


@st.composite
def csi_series(draw, cells=readable, min_rows=0):
    """Timestamps at least a microsecond apart, well above the 1 ns the format keeps."""
    gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=min_rows, max_size=12))
    t = draw(st.floats(0.0, 1e4)) + np.cumsum(gaps)
    parts = draw(st.lists(cells, min_size=2 * t.size, max_size=2 * t.size))
    re, im = np.array(parts[:t.size], dtype=float), np.array(parts[t.size:], dtype=float)
    return CsiSeries(timestamps=t, values=re + 1j * im, link_id="x")


cell_sizes = st.floats(1e-300, 1e300)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestFormatters:
    def test_format_rows_keeps_each_shape_and_sign_of_zero(self):
        a = np.array([[-0.0, 0.0, -1.0], [2.5, -0.0, 0.0]])
        b = np.array([[2.5], [-1.0]])
        assert format_rows([a, b, np.zeros((2, 0)), np.zeros((0, 3))], "%g") == [
            "-0 0 -1\n2.5 -0 0\n", "2.5\n-1\n", "\n\n", ""]

    def test_format_table_takes_a_row_format(self):
        a = np.array([[-0.0, 0.0, -1.0], [2.5, -0.0, 0.0]])
        assert format_table(a, "%g,%g;%g\n") == "-0,0;-1\n2.5,-0;0\n"
        assert format_table(np.array([1.5, -0.0]), "%g\n") == "1.5\n-0\n"
        assert format_table(np.zeros((2, 0)), "\n") == "\n\n"
        assert format_table(np.zeros((0, 3)), "%g %g %g\n") == ""


class TestWritersMatchReference:
    @given(values_=tables(values(non_finite=True)), x0=values(), y0=values(),
           dx=cell_sizes, dy=cell_sizes)
    @settings(max_examples=60, deadline=None)
    @example(values_=np.array([[-0.0, 0.0], [0.0, -0.0]]), x0=-0.0, y0=0.0, dx=1.0, dy=1.0)
    @example(values_=np.zeros((0, 3)), x0=0.0, y0=0.0, dx=1.0, dy=1.0)
    @example(values_=np.zeros((3, 0)), x0=0.0, y0=0.0, dx=1.0, dy=1.0)
    @example(values_=np.array([[math.inf], [-math.inf], [math.nan]]),
             x0=0.0, y0=0.0, dx=1.0, dy=1.0)
    def test_raster(self, tmp_path_factory, values_, x0, y0, dx, dy):
        d = tmp_path_factory.mktemp("raster")
        save_raster(d / "new.txt", values_, x0, y0, dx, dy)
        ref.save_raster(d / "ref.txt", values_, x0, y0, dx, dy)
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()

    @given(spec=spectrograms(values(non_finite=True)))
    @settings(max_examples=60, deadline=None)
    @example(spec=Spectrogram(data=np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0]]),
                              no_data_cols=np.array([0, 0, 1]), frame_times=np.arange(3.0)))
    @example(spec=Spectrogram(data=np.zeros((0, 2)), no_data_cols=np.zeros(2),
                              frame_times=np.arange(2.0)))
    @example(spec=Spectrogram(data=np.zeros((2, 0)), no_data_cols=np.zeros(0),
                              frame_times=np.zeros(0)))
    def test_spectrogram(self, tmp_path_factory, spec):
        d = tmp_path_factory.mktemp("spec")
        save_spectrogram(spec, d / "new.txt")
        ref.save_spectrogram(spec, d / "ref.txt")
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()

    @given(ds=datasets(values(non_finite=True)))
    @settings(max_examples=60, deadline=None)
    @example(ds=Dataset(train=((np.array([[-1.0, -0.0]]), np.array([[0.0, -0.0]])),
                               (np.array([[0.0, -1.0]]), np.array([[0.0, -0.0]]))),
                        test=((np.zeros((0, 2)), np.zeros((2, 0))),
                              (np.array([[5e-324], [-1.0]]), np.array([[1e300], [-1e-300]])))))
    def test_dataset(self, tmp_path_factory, ds):
        d = tmp_path_factory.mktemp("ds")
        save_dataset(ds, d / "new")
        ref.save_dataset(ds, d / "ref")
        assert tree_bytes(d / "new") == tree_bytes(d / "ref")

    @given(series=csi_series(values()))
    @settings(max_examples=60, deadline=None)
    def test_csi_csv(self, tmp_path_factory, series):
        d = tmp_path_factory.mktemp("csi")
        save_csi_csv(series, d / "new.csv")
        ref.save_csi_csv(series, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @given(times=st.lists(st.floats(0.0, 1e12)).map(np.unique))
    @settings(max_examples=60, deadline=None)
    def test_sample_times(self, tmp_path_factory, times):
        st_ = SampleTimes(times, float(times[-1]) if times.size else 0.0)
        d = tmp_path_factory.mktemp("times")
        save_sample_times(st_, d / "new.txt")
        ref.save_sample_times(st_, d / "ref.txt")
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()


# How a line of a table is damaged: each must be rejected.
DAMAGE = ("truncated", "not_a_number", "ragged", "nan")


def damage(line: str, kind: str, sep: str, token: str) -> str:
    cells = line.split(sep)
    if kind == "truncated":
        return sep.join(cells[:-1])
    if kind == "ragged":
        return sep.join(cells + ["0.5"])
    cells[len(cells) // 2] = "nan" if kind == "nan" else token
    return sep.join(cells)


def damage_file(path, data, first_line, last_line, sep=" "):
    """Damage one drawn line in ``first_line..last_line`` of ``path``."""
    lines = path.read_text().split("\n")
    i = data.draw(st.integers(first_line, last_line))
    lines[i] = damage(lines[i], data.draw(st.sampled_from(DAMAGE)), sep,
                      data.draw(st.sampled_from(NOT_NUMBERS)))
    path.write_text("\n".join(lines))


def rejected(load, path, named=None):
    """``load(path)`` raises a ValueError that names ``named`` (by default ``path``)."""
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(named or path) in str(exc.value)


# a truncated one-value row leaves a blank line, which np.loadtxt warns about
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
class TestReadersFuzzed:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_spectrogram(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("spec") / "spec.txt"
        save_spectrogram(data.draw(spectrograms(readable)), path)
        first = path.read_bytes()
        save_spectrogram(load_spectrogram(path), path)
        assert path.read_bytes() == first

        spec = data.draw(spectrograms(readable, min_side=1))
        save_spectrogram(spec, path)
        damage_file(path, data, 1, spec.n_f)
        rejected(load_spectrogram, path)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_dataset(self, tmp_path_factory, data):
        d = tmp_path_factory.mktemp("ds")
        save_dataset(data.draw(datasets(readable, min_side=1)), d / "a")
        save_dataset(load_dataset(d / "a"), d / "b")
        assert tree_bytes(d / "a") == tree_bytes(d / "b")

        y = data.draw(tables(readable, min_side=1))
        save_dataset(Dataset(train=((y, y),), test=()), d / "c")
        path = d / "c" / "train" / data.draw(st.sampled_from(["0000.x", "0000.y"]))
        damage_file(path, data, 0, y.shape[0] - 1)
        rejected(load_dataset, path.parent.parent, named=path)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_csi_csv(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csi") / "csi.csv"
        save_csi_csv(data.draw(csi_series()), path)
        first = path.read_bytes()
        save_csi_csv(load_csi_csv(path), path)
        assert path.read_bytes() == first

        series = data.draw(csi_series(min_rows=1))
        save_csi_csv(series, path)
        damage_file(path, data, 1, len(series.timestamps), sep=",")
        rejected(load_csi_csv, path)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_raster(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("raster") / "raster.txt"
        # inf cells are kept; NaN cells are what the reader rejects
        cells = st.one_of(readable, st.sampled_from([math.inf, -math.inf]))
        values_ = data.draw(tables(cells, min_side=1))
        origin = data.draw(readable), data.draw(readable)
        save_raster(path, values_, *origin, data.draw(cell_sizes), data.draw(cell_sizes))
        first = path.read_bytes()
        loaded, (x0, y0, dx, dy) = load_raster(path)
        save_raster(path, loaded, x0, y0, dx, dy)
        assert path.read_bytes() == first

        damage_file(path, data, 1, values_.shape[0])
        rejected(load_raster, path)
