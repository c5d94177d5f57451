"""Channel-physics tests: reflected-path gain, variation power, VIR, rasters."""

import math
import warnings

import numpy as np
import pytest

from nfsense import geometry
from nfsense.geometry import (Mover, Point2D, RadioConfig, reflection_gain_array,
                              save_raster, variation_power, vir, vir_map)
from textio_reference import load_raster

FOUR_PI = 4.0 * math.pi


def reflection_gain(cfg, d_as, d_se):
    """One reflected-path gain, with the distance check every scalar path makes."""
    geometry._check_distances(d_as, d_se)
    return complex(reflection_gain_array(cfg, d_as, d_se))


def variation_power_exact(cfg, d_as, d_se, v):
    """Exact variation power: amplitude- plus phase-variation terms.

    Always >= the approximate form; the two agree closely whenever the
    subject sits in the near field of the UE and far from the AP.
    """
    geometry._check_distances(d_as, d_se)
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    lam, alpha = cfg.lambda_m, cfg.alpha
    prefactor = (cfg.raw_gain * lam ** 4 * v * v
                 / (FOUR_PI ** 4 * (d_as * d_se) ** alpha))
    bracket = (alpha ** 2 / 4.0 * ((d_as + d_se) / (d_as * d_se)) ** 2
               + 16.0 * math.pi ** 2 / lam ** 2)
    return prefactor * bracket


def normalized_cfg(**kw):
    return RadioConfig(**kw)


class TestRadioConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            RadioConfig(lambda_m=0.0)
        with pytest.raises(ValueError):
            RadioConfig(alpha=1.5)
        with pytest.raises(ValueError):
            RadioConfig(alpha=4.5)
        with pytest.raises(ValueError):
            RadioConfig(eta=-1.0)
        with pytest.raises(ValueError):
            RadioConfig(g_tilde=0.0)

    def test_raw_gain_round_trip(self):
        cfg = RadioConfig.from_raw_gain(2.5, lambda_m=0.06)
        assert cfg.raw_gain == pytest.approx(2.5, rel=1e-12)


class TestReflectionGain:
    def test_magnitude_matches_hand_evaluation(self):
        # lambda^2 / ((4 pi)^2 (0.3)^2) for unit raw gain, alpha=4
        cfg = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0)
        g = reflection_gain(cfg, 3.0, 0.1)
        expected = 0.06 ** 2 / (FOUR_PI ** 2 * 0.3 ** 2)
        assert abs(g) == pytest.approx(expected, rel=1e-12)
        assert abs(g) == pytest.approx(2.533e-4, rel=1e-3)

    def test_doubling_both_distances_scales_by_inverse_sixteenth(self):
        cfg = RadioConfig.from_raw_gain(1.0, alpha=4.0)
        g1 = reflection_gain(cfg, 1.3, 0.2)
        g2 = reflection_gain(cfg, 2.6, 0.4)
        assert abs(g2) == pytest.approx(abs(g1) / 16.0, rel=1e-12)

    def test_phase_periodic_in_wavelength(self):
        cfg = RadioConfig.from_raw_gain(1.0, alpha=2.0, lambda_m=0.06)
        lam = cfg.lambda_m
        g1 = reflection_gain(cfg, 2.0, 0.5)
        g2 = reflection_gain(cfg, 2.0 + lam, 0.5)
        # same total-path phase; magnitudes differ by the spreading law
        assert np.angle(g1) == pytest.approx(np.angle(g2), abs=1e-9)

    def test_power_law_scaling_property(self):
        rng = np.random.default_rng(1)
        for alpha in (2.0, 3.0, 4.0):
            cfg = RadioConfig.from_raw_gain(1.0, alpha=alpha)
            for _ in range(20):
                d1, d2 = rng.uniform(0.05, 5.0, size=2)
                k = rng.uniform(0.1, 10.0)
                g = abs(reflection_gain(cfg, d1, d2))
                gk = abs(reflection_gain(cfg, k * d1, k * d2))
                assert gk == pytest.approx(k ** (-alpha) * g, rel=1e-10)

    def test_rejects_nonpositive_distance(self):
        cfg = RadioConfig()
        with pytest.raises(ValueError):
            reflection_gain(cfg, 0.0, 0.1)
        with pytest.raises(ValueError):
            reflection_gain(cfg, 1.0, -0.5)


class TestVariationPower:
    def test_zero_speed_gives_zero(self):
        assert variation_power(RadioConfig(), 3.0, 0.1, 0.0) == 0.0

    def test_near_field_approximation_within_one_percent(self):
        cfg = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0)
        exact = variation_power_exact(cfg, 3.0, 0.1, 1.0)
        approx = variation_power(cfg, 3.0, 0.1, 1.0)
        assert 0.99 <= exact / approx <= 1.01

    def test_quadratic_in_speed(self):
        cfg = RadioConfig()
        base = variation_power(cfg, 2.0, 0.2, 1.0)
        assert variation_power(cfg, 2.0, 0.2, 3.0) == pytest.approx(9.0 * base, rel=1e-12)

    def test_exact_always_at_least_approximate(self):
        rng = np.random.default_rng(2)
        cfg = RadioConfig.from_raw_gain(1.0)
        for _ in range(50):
            d1, d2, v = rng.uniform(0.05, 4.0), rng.uniform(0.02, 1.0), rng.uniform(0, 2)
            assert (variation_power_exact(cfg, d1, d2, v)
                    >= variation_power(cfg, d1, d2, v) * (1 - 1e-12))


class TestVir:
    AP = Point2D(0.0, 0.0)
    UE = Point2D(3.1, 0.0)

    def test_no_interferer_hand_value(self):
        # eta=0, b=1, unit speed/gain at (3.0, 0.1) -> (0.3)^-4
        cfg = RadioConfig(eta=0.0, b=1.0)
        subject = Mover(Point2D(3.0, 0.0), 1.0)
        assert vir(cfg, self.AP, self.UE, subject) == pytest.approx(123.4568, rel=1e-4)

    def test_mirror_symmetric_interferer_gives_unity(self):
        cfg = RadioConfig(eta=0.0, b=0.0)
        subject = Mover(Point2D(2.0, 1.0), 1.0)
        mirrored = Mover(Point2D(2.0, -1.0), 1.0)
        ue_on_axis = Point2D(3.0, 0.0)
        assert vir(cfg, self.AP, ue_on_axis, subject, [mirrored]) == pytest.approx(1.0, rel=1e-9)

    def test_still_subject_gives_zero(self):
        cfg = RadioConfig()
        subject = Mover(Point2D(3.0, 0.0), 0.0)
        assert vir(cfg, self.AP, self.UE, subject) == 0.0

    def test_zero_denominator_raises(self):
        cfg = RadioConfig(eta=0.0, b=0.0)
        subject = Mover(Point2D(3.0, 0.0), 1.0)
        with pytest.raises(ZeroDivisionError):
            vir(cfg, self.AP, self.UE, subject, [])

    def test_speed_scale_invariance_without_dynamic_terms(self):
        cfg = RadioConfig(eta=0.0, b=0.0)
        subject = Mover(Point2D(3.0, 0.0), 1.0)
        itf = Mover(Point2D(1.0, 1.5), 0.7)
        base = vir(cfg, self.AP, self.UE, subject, [itf])
        scaled = vir(cfg, self.AP, self.UE, Mover(subject.position, 3.0),
                     [Mover(itf.position, 2.1)])
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_monotone_decreasing_in_interferer_speed(self):
        cfg = RadioConfig()
        subject = Mover(Point2D(3.0, 0.0), 1.0)
        values = [vir(cfg, self.AP, self.UE, subject, [Mover(Point2D(1.0, 1.0), v)])
                  for v in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def scalar_vir_map(cfg, ap, ue, subject, fmap, beta):
    """The per-cell loop vir_map replaces: two scalar vir() calls per cell.

    Each candidate interferer moves with the subject's intensity.
    """
    delta_i = subject.position.distance(ue)
    vs, vi = np.empty((2, fmap.ny, fmap.nx))
    ok = np.zeros((fmap.ny, fmap.nx), dtype=bool)
    for row, col in np.ndindex(fmap.ny, fmap.nx):
        cell = fmap.cell_center(row, col)
        if any(cell.distance(p) < 1e-12 for p in (ap, ue, subject.position)):
            vs[row, col] = vi[row, col] = math.inf
            continue
        itf = Mover(cell, subject.intensity)
        d = ap.distance(cell)
        cell_ue = Point2D(cell.x + delta_i * ((cell.x - ap.x) / d),
                          cell.y + delta_i * ((cell.y - ap.y) / d))
        vs[row, col] = vir(cfg, ap, ue, subject, [itf])
        vi[row, col] = vir(cfg, ap, cell_ue, itf, [subject])
        ok[row, col] = vs[row, col] >= beta and vi[row, col] >= beta
    return vs, vi, ok


ORACLE_CFGS = pytest.mark.parametrize(
    "cfg", [RadioConfig(), RadioConfig(alpha=3.0), RadioConfig(eta=0.0, b=0.0)],
    ids=["default", "alpha3", "eta_b_zero"])


class TestVirMap:
    def setup_method(self):
        self.cfg = RadioConfig()  # normalized constants
        self.ap = Point2D(0.0, 0.0)
        self.ue = Point2D(3.1, 0.0)
        self.subject = Mover(Point2D(3.0, 0.0), 1.0)

    def test_fig3_qualitative_features(self):
        fmap = vir_map(self.cfg, self.ap, self.ue, self.subject,
                       extent=(-4.0, -4.0, 4.5, 4.0), resolution=0.25, beta=50.0)
        # cells right next to the subject are infeasible
        row0 = int(round((0.0 - fmap.y0) / fmap.dy))
        col_near = int(round((2.75 - fmap.x0) / fmap.dx))
        assert not fmap.feasible[row0, col_near]
        # mid-range between AP and subject is feasible
        col_mid = int(round((1.5 - fmap.x0) / fmap.dx))
        assert fmap.feasible[row0, col_mid]
        # far outside the system boundary (> 3.76 m from AP) is infeasible
        col_far = int(round((-3.9 - fmap.x0) / fmap.dx))
        assert not fmap.feasible[row0, col_far]
        assert 0 < fmap.feasible.sum() < fmap.feasible.size

    def test_vacuous_threshold_everything_feasible_for_subject(self):
        fmap = vir_map(self.cfg, self.ap, self.ue, self.subject,
                       extent=(0.5, -1.0, 2.5, 1.0), resolution=0.5, beta=1e-12)
        finite = np.isfinite(fmap.vir_subject)
        assert np.all(fmap.vir_subject[finite] >= 1e-12)

    def test_singular_cells_carry_inf_sentinel(self):
        fmap = vir_map(self.cfg, self.ap, self.ue, self.subject,
                       extent=(0.0, 0.0, 3.0, 1.0), resolution=1.0, beta=50.0)
        # the (0, 0) cell coincides with the AP
        assert math.isinf(fmap.vir_subject[0, 0])
        assert not fmap.feasible[0, 0]

    def test_constant_interference_contour_is_cassini_oval(self):
        # along a contour of constant interferer power at the UE, the
        # product of distances to AP and UE is constant
        cfg = RadioConfig(eta=0.0, b=0.0)
        target = vir(cfg, self.ap, self.ue, self.subject,
                     [Mover(Point2D(1.5, 0.8), 1.0)])
        d_prod_ref = (self.ap.distance(Point2D(1.5, 0.8))
                      * Point2D(1.5, 0.8).distance(self.ue))
        # walk a few angles and solve for the radius giving the same VIR
        for angle in (0.2, 0.7, 1.2, 2.0):
            lo, hi = 0.05, 8.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                p = Point2D(self.ue.x / 2 + mid * math.cos(angle),
                            mid * math.sin(angle))
                val = vir(cfg, self.ap, self.ue, self.subject, [Mover(p, 1.0)])
                if val < target:   # too much interference: move away
                    lo = mid
                else:
                    hi = mid
            p = Point2D(self.ue.x / 2 + lo * math.cos(angle), lo * math.sin(angle))
            d_prod = self.ap.distance(p) * p.distance(self.ue)
            assert d_prod == pytest.approx(d_prod_ref, rel=1e-3)

    def test_determinism(self):
        kw = dict(extent=(-1.0, -1.0, 1.5, 1.0), resolution=0.5, beta=50.0)
        a = vir_map(self.cfg, self.ap, self.ue, self.subject, **kw)
        b = vir_map(self.cfg, self.ap, self.ue, self.subject, **kw)
        assert np.array_equal(a.vir_subject, b.vir_subject)
        assert np.array_equal(a.vir_interferer, b.vir_interferer)
        assert np.array_equal(a.feasible, b.feasible)

    def check_oracle(self, cfg, ap, ue, subject, extent, resolution, beta=50.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fmap = vir_map(cfg, ap, ue, subject, extent, resolution, beta)
        vs, vi, ok = scalar_vir_map(cfg, ap, ue, subject, fmap, beta)
        for got, want in ((fmap.vir_subject, vs), (fmap.vir_interferer, vi)):
            assert np.array_equal(np.isinf(got), np.isinf(want))
            fin = np.isfinite(want)
            assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.abs(want[fin]))
        assert np.array_equal(fmap.feasible, ok)
        return fmap

    @ORACLE_CFGS
    @pytest.mark.parametrize("speed", [None, 0.4])   # None: the default 1.3
    def test_grid_points_on_ap_ue_and_subject(self, cfg, speed):
        # beta 2: at alpha 3 a 0.4 subject clears beta 5 nowhere
        ap, ue = Point2D(0.0, 0.0), Point2D(3.0, 0.625)
        subject = Mover(Point2D(3.0, 0.5), 1.3 if speed is None else speed)
        fmap = self.check_oracle(cfg, ap, ue, subject, (-1.0, -1.0, 3.5, 1.5), 0.125, beta=2.0)
        singular = np.isinf(fmap.vir_subject)
        # exactly the three cells at (0, 0), (3, 0.5) and (3, 0.625)
        assert sorted(zip(*np.nonzero(singular))) == [(8, 8), (12, 32), (13, 32)]
        assert np.all(np.isinf(fmap.vir_interferer[singular]))
        assert not fmap.feasible[singular].any()
        assert 0 < fmap.feasible.sum() < fmap.feasible.size - 3

    @ORACLE_CFGS
    @pytest.mark.parametrize("corner, lower", [(Point2D(1.5, 0.8), "subject"),
                                               (Point2D(3.0, 1.75), "interferer")])
    def test_cells_at_the_threshold(self, cfg, corner, lower):
        # A 41 x 41 patch 4e-10 m across: every VIR in it is within 1e-9
        # relative of the others, so with beta the median of the lower VIR
        # the flags split and a last-bit change in vir_map could flip one.
        res = 1e-11
        extent = (corner.x, corner.y, corner.x + 40.5 * res, corner.y + 40.5 * res)
        probe = vir_map(cfg, self.ap, self.ue, self.subject, extent, res, 1.0)
        vs, vi, _ = scalar_vir_map(cfg, self.ap, self.ue, self.subject, probe, 1.0)
        low, high = (vs, vi) if lower == "subject" else (vi, vs)
        beta = float(np.median(low))
        assert low.shape == (41, 41) and np.all(low < high)
        assert np.all(np.abs(low / beta - 1) < 1e-9)
        fmap = self.check_oracle(cfg, self.ap, self.ue, self.subject, extent, res, beta)
        assert 0 < fmap.feasible.sum() < fmap.feasible.size

    def test_row_count_not_a_multiple_of_the_block(self):
        res, nx, ny = 1 / 128, 1000, 11
        rows = geometry._BLOCK_CELLS // nx
        assert rows > 1 and ny % rows != 0
        fmap = self.check_oracle(self.cfg, self.ap, self.ue, self.subject,
                                 (-4.0, -5 * res, -4.0 + (nx - 1) * res, 5 * res), res)
        assert (fmap.ny, fmap.nx) == (ny, nx)
        # the row through y = 0 holds the AP and the subject
        assert np.isinf(fmap.vir_subject[5, 512]) and np.isinf(fmap.vir_subject[5, 896])

    def test_single_row_wider_than_the_block(self):
        res, nx = 1 / 512, 5000
        assert nx > geometry._BLOCK_CELLS
        fmap = self.check_oracle(self.cfg, self.ap, self.ue, Mover(self.subject.position, 0.8),
                                 (-4.0, 0.25, -4.0 + (nx - 1) * res, 0.25 + 1.5 * res), res)
        assert (fmap.ny, fmap.nx) == (2, nx)

    def map(self, extent=(-1.0, -1.0, 1.0, 1.0), resolution=0.5, ap=None, ue=None,
            subject=None):
        return vir_map(self.cfg, ap or self.ap, ue or self.ue, subject or self.subject,
                       extent, resolution, 50.0)

    @pytest.mark.parametrize("extent", [(-4.0, -4.0, math.inf, 4.0), (-math.inf, 0.0, 1.0, 1.0),
                                        (0.0, math.nan, 1.0, 1.0)])
    def test_non_finite_extent(self, extent):
        with pytest.raises(ValueError, match="extent must be finite"):
            self.map(extent=extent)

    @pytest.mark.parametrize("resolution", [math.inf, math.nan, 0.0, -0.5])
    def test_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite and > 0"):
            self.map(resolution=resolution)

    def test_subject_on_ue(self):
        with pytest.raises(ValueError, match=r"distances must be > 0, got 0\.0"):
            self.map(subject=Mover(self.ue, 1.0))

    @pytest.mark.parametrize("v_s", [1.0, 0.0])
    def test_candidate_ue_on_subject_takes_the_limit(self, v_s):
        # cell (2.75, 0) puts its own UE 0.25 m past it, on the subject (3, 0)
        ue, subject = Point2D(3.25, 0.0), Mover(Point2D(3.0, 0.0), v_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fmap = vir_map(self.cfg, self.ap, ue, subject, (2.0, -0.5, 3.5, 0.5), 0.25, 1e-9)
        assert fmap.cell_center(2, 3) == Point2D(2.75, 0.0)
        if v_s > 0:
            # the subject term (d_as * d_su)^-alpha grows without bound
            assert fmap.vir_interferer[2, 3] == 0.0 and not fmap.feasible[2, 3]
        else:
            # a still subject adds nothing wherever it is (no 0 * inf NaN), and
            # the candidate, as still as the subject, varies nothing either
            still_elsewhere = Mover(Point2D(0.5, 2.0), 0.0)
            want = vir(self.cfg, self.ap, subject.position, Mover(Point2D(2.75, 0.0), v_s),
                       [still_elsewhere])
            assert fmap.vir_interferer[2, 3] == pytest.approx(want, rel=1e-12)
        assert np.isfinite(fmap.vir_subject[2, 3])

    def test_ap_on_ue(self):
        with pytest.raises(ValueError, match=r"distances must be > 0, got 0\.0"):
            self.map(ue=Point2D(0.0, 0.0), subject=Mover(Point2D(0.1, 0.0), 1.0))

    def test_zero_denominator_like_scalar_vir(self):
        self.cfg = RadioConfig(eta=0.0, b=0.0)
        with pytest.raises(ZeroDivisionError):
            vir(self.cfg, self.ap, self.ue, self.subject, [Mover(Point2D(1.0, 1.0), 0.0)])
        with pytest.raises(ZeroDivisionError):
            self.map(subject=Mover(self.subject.position, 0.0))


class TestRasterIO:
    def test_round_trip_with_inf(self, tmp_path):
        values = np.array([[1.5, math.inf], [0.0, -2.25]])
        path = tmp_path / "raster.txt"
        save_raster(path, values, 0.0, -1.0, 0.5, 0.5)
        loaded, (x0, y0, dx, dy) = load_raster(path)
        assert np.array_equal(loaded, values)
        assert (x0, y0, dx, dy) == (0.0, -1.0, 0.5, 0.5)

    @pytest.mark.parametrize("text", [
        "# 0 0 1\n1 2\n",                      # fewer than 6 header fields
        "1 2\n",                                # no header
        "# 0 0 a 1 2 1\n1 2\n",                # non-numeric header field
        "# 0 0 1 1 2.5 1\n1 2\n",              # non-integer nx
        "# 0 0 1 1 0 1\n1 2\n",                # nx below 1
        "# 0 0 1 1 2 -1\n1 2\n",               # ny below 1
        "# 0 0 inf 1 2 1\n1 2\n",              # dx not finite
        "# 0 0 1 nan 2 1\n1 2\n",              # dy not finite
        "# 0 0 0 1 2 1\n1 2\n",                # dx not above 0
        "# 0 0 1 -0.5 2 1\n1 2\n",             # dy not above 0
        "# 0 0 1 1 2 1\n1 nan\n",              # NaN cell
        "# 0 0 1 1 2 1\n1 x\n",                # non-numeric cell
        "# 0 0 1 1 2 2\n1 2\n",                # missing row
    ])
    def test_malformed_file_named(self, tmp_path, text):
        path = tmp_path / "bad_raster.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad_raster.txt"):
            load_raster(path)
