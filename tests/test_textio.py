"""Numeric-table text: the writers against their reference, and the readers fuzzed.

Every writer must give the bytes of ``textio_reference`` (``np.savetxt`` and
per-row f-strings) on drawn arrays: -0.0 next to 0.0, subnormals, +-1e+-300,
the -1 sentinel, heavy repeats, one-column and empty shapes, and inf/nan.
A 10-digit writer refuses, naming the file and writing nothing, a finite
value that its text would round above the largest double.  Every reader
must reproduce a written file byte for byte after load and save, and must
reject a truncated line, a non-numeric token, a ragged row or a NaN with a
ValueError that names the file.  The package reads no raster, so rasters
are read back with ``textio_reference.load_raster``.
"""

import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textio_reference as ref
from nfsense import config, kvtext
from nfsense.config import load_config
from nfsense.geometry import save_raster
from nfsense.kvtext import TEXT_MAX, format_table
from nfsense.scene import CsiSeries, load_csi_csv, save_csi_csv
from nfsense.sra import (NO_DATA_SENTINEL, Dataset, Spectrogram, load_dataset,
                         load_spectrogram, save_dataset, save_spectrogram)
from nfsense.tcn import TcnConfig, TcnModel, load_model, save_model

SPECIAL = (0.0, -0.0, NO_DATA_SENTINEL, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308)
NON_FINITE = (math.inf, -math.inf, math.nan, -math.nan)
NOT_NUMBERS = ("abc", "1.0.0", "--1", "1e", "e5", "0x10", "nan0", "+-1", "1d5", ".", "-", "#1")


def values(non_finite=False):
    return st.one_of(st.sampled_from(SPECIAL + (NON_FINITE if non_finite else ())),
                     st.floats(allow_nan=non_finite, allow_infinity=non_finite))


# Round trips draw every finite double, up to the largest; a 10-digit writer
# refuses those from TEXT_MAX up, and the rest must read back.
finite = values()
writable = finite.filter(lambda v: abs(v) < TEXT_MAX)


def too_large(*arrays):
    """Whether a 10-digit writer must refuse one of the values."""
    a = np.abs(np.concatenate([np.ravel(np.asarray(x, dtype=float)) for x in arrays]))
    return bool(np.any((a >= TEXT_MAX) & np.isfinite(a)))


LABEL_FILE = r"/t\w+/\d{4}\.y: "       # a train/ or test/ label file of a dataset


def refused(save, path, named=None):
    """``save()`` raises a ValueError naming ``named`` (by default ``path``) and writes nothing."""
    with pytest.raises(ValueError, match="10 digits would write it as inf") as exc:
        save()
    assert re.search(named or re.escape(str(path)), str(exc.value))
    assert not path.exists()


@st.composite
def tables(draw, cells=values(), min_side=0, shape=None):
    """A 2-D float array whose cells come from a small pool, so values repeat."""
    rows, cols = shape or (draw(st.integers(min_side, 6)), draw(st.integers(min_side, 6)))
    pool = draw(st.lists(cells, min_size=1, max_size=40))
    flat = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=float).reshape(rows, cols)


@st.composite
def datasets(draw, cells=values(), min_side=0):
    """Labels of one row count, each with 1 to 3 masks, as build_dataset makes them."""
    n_f, labels = draw(st.integers(min_side, 6)), []
    for _ in range(draw(st.integers(0, 4))):
        y = draw(tables(cells, shape=(n_f, draw(st.integers(min_side, 6)))))
        n_masks = draw(st.integers(1, 3))
        hidden = draw(st.lists(st.booleans(), min_size=n_masks * y.shape[1],
                               max_size=n_masks * y.shape[1]))
        labels.append((y, np.array(hidden, dtype=bool).reshape(n_masks, y.shape[1])))
    n_train = draw(st.integers(0, len(labels)))
    return Dataset(train_labels=tuple(labels[:n_train]), test_labels=tuple(labels[n_train:]))


def one_label(y):
    """A dataset of one train label ``y`` and one masked copy that hides its first column."""
    return Dataset(train_labels=((y, np.arange(y.shape[1])[None, :] == 0),), test_labels=())


def labels_of(ds):
    return [y for y, _ in ds.train_labels + ds.test_labels]


@st.composite
def spectrograms(draw, cells=values(), min_side=0):
    """Frame times are seconds from the start of a recording: t0 >= 0."""
    data = draw(tables(cells, min_side))
    n_t = data.shape[1]
    t0 = draw(st.floats(0.0, 1e4))
    frame_dt = draw(st.floats(1e-3, 10.0))
    df_hz = draw(st.floats(1e-6, 1e3))
    flags = draw(st.lists(st.booleans(), min_size=n_t, max_size=n_t))
    return Spectrogram(data=data, no_data_cols=np.array(flags, dtype=bool),
                       t0_s=t0, frame_dt_s=frame_dt, df_hz=df_hz)


@st.composite
def csi_series(draw, cells=finite, min_rows=0):
    """Timestamps at least a microsecond apart, well above the 1 ns the format keeps."""
    gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=min_rows, max_size=12))
    t = draw(st.floats(0.0, 1e4)) + np.cumsum(gaps)
    parts = draw(st.lists(cells, min_size=2 * t.size, max_size=2 * t.size))
    re, im = np.array(parts[:t.size], dtype=float), np.array(parts[t.size:], dtype=float)
    return CsiSeries(timestamps=t, values=re + 1j * im)


cell_sizes = st.floats(1e-300, 1e300)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestFormatters:
    def test_format_table_takes_a_row_format(self):
        a = np.array([[-0.0, 0.0, -1.0], [2.5, -0.0, 0.0]])
        assert format_table(a, "%g,%g;%g\n") == "-0,0;-1\n2.5,-0;0\n"
        assert format_table(np.array([1.5, -0.0]), "%g\n") == "1.5\n-0\n"
        assert format_table(np.zeros((2, 0)), "\n") == "\n\n"
        assert format_table(np.zeros((0, 3)), "%g %g %g\n") == ""


class TestTableHelpers:
    def test_read_table_names_the_file_and_refuses_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kvtext.read_table("t.txt", []).size == 0
        assert kvtext.read_table("t.txt", ["1 -0", "2 3"]).tolist() == [[1.0, -0.0], [2.0, 3.0]]
        with pytest.raises(ValueError, match=r"^t\.txt: non-finite value$"):
            kvtext.read_table("t.txt", ["1 -inf"])
        with pytest.raises(ValueError, match=r"^t\.txt: non-finite value$"):
            kvtext.read_table("t.txt", ["nan 1"])
        with pytest.raises(ValueError, match=r"^t\.txt: expected a,b: .*'x'"):
            kvtext.read_table("t.txt", ["1,x"], ",", what="expected a,b: ")

    def test_write_csv_ends_every_line_in_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        kvtext.write_csv(path, ("a", "b"), [(1, "x"), (-0.5, "-")])
        assert path.read_bytes() == b"a,b\n1,x\n-0.5,-\n"
        kvtext.write_csv(path, ("a",), iter(()))
        assert path.read_bytes() == b"a\n"

    def test_parse_csv_numbers_rows_by_file_line(self):
        assert kvtext.parse_csv(["a,b\n", "1,2\n", "\n", " 3 , x \n"], ("a", "b"), "s") == \
            [(2, ["1", "2"]), (4, ["3", "x"])]
        with pytest.raises(ValueError, match=r"^s: first line must be the header a,b$"):
            kvtext.parse_csv(["a;b\n"], ("a", "b"), "s")
        with pytest.raises(ValueError, match=r"^s: line 3: expected 2 fields a,b, got 3$"):
            kvtext.parse_csv(["a,b", "1,2", "1,2,3"], ("a", "b"), "s")


class TestEmptyCsiSeries:
    def test_header_only_file_reads_without_a_warning(self, tmp_path):
        path = tmp_path / "e.csv"
        save_csi_csv(CsiSeries(np.array([]), np.array([])), path)
        assert path.read_text() == "t_s,re,im\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = load_csi_csv(path)
        assert len(series) == 0 and series.values.dtype == complex


class TestTextMax:
    BELOW = float(np.nextafter(TEXT_MAX, 0.0))

    def test_largest_double_refused_naming_the_file(self, tmp_path):
        a = np.array([[0.5, -1.7976931348623157e308]])
        refused(lambda: save_dataset(one_label(a), tmp_path / "ds"),
                tmp_path / "ds", named=re.escape(str(tmp_path / "ds" / "train" / "0000.y")))
        spec = Spectrogram(data=a, no_data_cols=np.zeros(2), t0_s=0.0, frame_dt_s=1.0,
                           df_hz=0.25)
        refused(lambda: save_spectrogram(spec, tmp_path / "s.txt"), tmp_path / "s.txt")
        refused(lambda: save_raster(tmp_path / "r.txt", a, 0.0, 0.0, 1.0, 1.0), tmp_path / "r.txt")
        refused(lambda: save_raster(tmp_path / "r.txt", np.ones((1, 1)), TEXT_MAX, 0.0, 1.0, 1.0),
                tmp_path / "r.txt")

    def test_just_below_reads_back_and_inf_cells_stay(self, tmp_path):
        a = np.array([[self.BELOW, -self.BELOW]])
        save_dataset(one_label(a), tmp_path / "ds")
        assert np.isfinite(load_dataset(tmp_path / "ds").train[0][1]).all()
        save_spectrogram(Spectrogram(data=a, no_data_cols=np.zeros(2), t0_s=0.0,
                                     frame_dt_s=1.0, df_hz=0.25), tmp_path / "s.txt")
        assert np.isfinite(load_spectrogram(tmp_path / "s.txt").data).all()
        save_raster(tmp_path / "r.txt", np.array([[self.BELOW, math.inf]]), 0.0, 0.0, 1.0, 1.0)
        assert ref.load_raster(tmp_path / "r.txt")[0].tolist() == [[1.797693134e308, math.inf]]


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
        if too_large(values_, [x0, y0, dx, dy]):
            return refused(lambda: save_raster(d / "new.txt", values_, x0, y0, dx, dy),
                           d / "new.txt")
        save_raster(d / "new.txt", values_, x0, y0, dx, dy)
        ref.save_raster(d / "ref.txt", values_, x0, y0, dx, dy)
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()

    @given(spec=spectrograms(values(non_finite=True)))
    @settings(max_examples=60, deadline=None)
    @example(spec=Spectrogram(data=np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0]]),
                              no_data_cols=np.array([0, 0, 1]), t0_s=0.0, frame_dt_s=1.0,
                              df_hz=0.25))
    @example(spec=Spectrogram(data=np.zeros((0, 2)), no_data_cols=np.zeros(2), t0_s=0.0,
                              frame_dt_s=1.0, df_hz=0.25))
    @example(spec=Spectrogram(data=np.zeros((2, 0)), no_data_cols=np.zeros(0), t0_s=0.0,
                              frame_dt_s=0.0, df_hz=0.25))
    def test_spectrogram(self, tmp_path_factory, spec):
        d = tmp_path_factory.mktemp("spec")
        if too_large(spec.data):
            return refused(lambda: save_spectrogram(spec, d / "new.txt"), d / "new.txt")
        save_spectrogram(spec, d / "new.txt")
        ref.save_spectrogram(spec, d / "ref.txt")
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()

    @given(ds=datasets(values(non_finite=True)))
    @settings(max_examples=60, deadline=None)
    @example(ds=Dataset(train_labels=((np.array([[0.0, -0.0]]),
                                       np.array([[True, False], [False, True]])),),
                        test_labels=((np.zeros((0, 2)), np.zeros((1, 2), dtype=bool)),
                                     (np.zeros((2, 0)), np.zeros((1, 0), dtype=bool)),
                                     (np.array([[1e300], [-1e-300]]), np.ones((1, 1), bool)))))
    def test_dataset(self, tmp_path_factory, ds):
        """Each KKKK.y holds np.savetxt's bytes of its label and each KKKK.JJJJ.x
        the 0/1 row of its mask, as the spectrogram's flag row."""
        d = tmp_path_factory.mktemp("ds")
        if too_large(0.0, *labels_of(ds)):
            return refused(lambda: save_dataset(ds, d / "new"), d / "new",
                           named=re.escape(str(d / "new")) + LABEL_FILE)
        save_dataset(ds, d / "new")
        ref.save_labels(ds, d / "ref")
        masks = {pathlib.Path(name, f"{k:04d}.{j:04d}.x"):
                 (" ".join("1" if h else "0" for h in mask) + "\n").encode()
                 for name, labels in (("train", ds.train_labels), ("test", ds.test_labels))
                 for k, (_, m) in enumerate(labels) for j, mask in enumerate(m)}
        assert tree_bytes(d / "new") == {**tree_bytes(d / "ref"), **masks}

    @given(series=csi_series(values()))
    @settings(max_examples=60, deadline=None)
    def test_csi_csv(self, tmp_path_factory, series):
        d = tmp_path_factory.mktemp("csi")
        save_csi_csv(series, d / "new.csv")
        ref.save_csi_csv(series, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


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
        spec = data.draw(spectrograms(finite))
        if too_large(spec.data):
            refused(lambda: save_spectrogram(spec, path), path)
        else:
            save_spectrogram(spec, path)
            first = path.read_bytes()
            save_spectrogram(load_spectrogram(path), path)
            assert path.read_bytes() == first

        spec = data.draw(spectrograms(writable, min_side=1))
        save_spectrogram(spec, path)
        damage_file(path, data, 1, spec.n_f)
        rejected(load_spectrogram, path)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_dataset(self, tmp_path_factory, data):
        d = tmp_path_factory.mktemp("ds")
        ds = data.draw(datasets(finite, min_side=1))
        if too_large(0.0, *labels_of(ds)):
            refused(lambda: save_dataset(ds, d / "a"), d / "a",
                    named=re.escape(str(d / "a")) + LABEL_FILE)
        else:
            save_dataset(ds, d / "a")
            save_dataset(load_dataset(d / "a"), d / "b")
            assert tree_bytes(d / "a") == tree_bytes(d / "b")

        y = data.draw(tables(writable, min_side=1))
        save_dataset(one_label(y), d / "c")
        path = d / "c" / "train" / "0000.y"
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
        cells = st.one_of(finite, st.sampled_from([math.inf, -math.inf]))
        values_ = data.draw(tables(cells, min_side=1))
        origin = data.draw(finite), data.draw(finite)
        sizes = data.draw(cell_sizes), data.draw(cell_sizes)
        if too_large(values_, origin):
            refused(lambda: save_raster(path, values_, *origin, *sizes), path)
            values_, origin = np.ones((2, 3)), (0.0, 0.0)
        save_raster(path, values_, *origin, *sizes)
        first = path.read_bytes()
        loaded, (x0, y0, dx, dy) = ref.load_raster(path)
        save_raster(path, loaded, x0, y0, dx, dy)
        assert path.read_bytes() == first

        damage_file(path, data, 1, values_.shape[0])
        rejected(ref.load_raster, path)


class TestHashRefused:
    """No table has comments: a ``#`` line is an error naming the file, not a
    line the reader drops."""

    def test_csi_series(self, tmp_path):
        path = tmp_path / "csi.csv"
        path.write_text("t_s,re,im\n0.0,1,2\n# 0.5,9,9\n1.0,3,4\n")
        rejected(load_csi_csv, path)

    def test_raster(self, tmp_path):
        path = tmp_path / "raster.txt"
        save_raster(path, np.ones((2, 3)), 0.0, 0.0, 1.0, 1.0)
        path.write_text(path.read_text() + "# 3 4\n")
        rejected(ref.load_raster, path)

    def test_dataset_pair(self, tmp_path):
        y = np.ones((2, 3))
        save_dataset(one_label(y), tmp_path / "ds")
        path = tmp_path / "ds" / "train" / "0000.y"
        path.write_text("# 1 2 3\n" + path.read_text())
        rejected(load_dataset, tmp_path / "ds", named=path)


def corrupt(data, blob: bytes, weights_from: int | None = None) -> bytes:
    """``blob`` truncated, with one byte flipped, with a value made NaN/inf or a line repeated.

    A model's float32 weights start at byte ``weights_from``; its NaN/inf
    case may overwrite one of them instead of a header value.
    """
    kind = data.draw(st.sampled_from(["truncated", "flipped", "non_finite", "repeated"]))
    if kind == "truncated":
        return blob[:data.draw(st.integers(0, max(len(blob) - 1, 0)))]
    if kind == "flipped":
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))]) + blob[i + 1:]
    head, tail = blob, b""
    if weights_from is not None:
        head, tail = blob[:weights_from], blob[weights_from:]
    lines = head.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "repeated":
        return b"\n".join(lines[:i + 1] + lines[i:]) + tail
    token = data.draw(st.sampled_from([b"nan", b"inf", b"-inf", b"-nan", b"1e999"]))
    if weights_from is not None and len(tail) >= 4 and data.draw(st.booleans()):
        j = 4 * data.draw(st.integers(0, len(tail) // 4 - 1))
        return head + tail[:j] + np.float32(float(token)).tobytes() + tail[j + 4:]
    key, eq, _ = lines[i].partition(b"=")
    lines[i] = key + eq + token if eq else token
    return b"\n".join(lines) + tail


def loads_or_names_the_file(load, path):
    """``load(path)`` returns, or raises a ValueError naming ``path``; nothing else."""
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc), exc


class TestKeyValueReadersFuzzed:
    CONFIG = "".join(f"{key}={kvtext._CODECS[kind][1](default)}\n"
                     for key, (kind, default) in config._SCHEMA.items()).encode()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_config(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_bytes(self.CONFIG)
        assert load_config(path).values == config.RunConfig().values
        path.write_bytes(corrupt(data, self.CONFIG))
        loads_or_names_the_file(load_config, path)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_model(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("model") / "model.tcn"
        cfg = TcnConfig(n_f=3, n_c=2, kernel_len=2, dilations=(1, 2),
                        bottleneck_dim=2, seed=5)
        save_model(TcnModel.initialize(cfg), path)
        blob = path.read_bytes()
        assert load_model(path).config == cfg
        path.write_bytes(corrupt(data, blob, blob.index(b"end_header\n") + 11))
        loads_or_names_the_file(load_model, path)
