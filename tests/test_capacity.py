"""Capacity-bound tests with closed-form series identities as oracles.

For alpha = 4 the radial interference series has the exact value
(N^4 + 10 N^2 - 11)/45, and for alpha = 2 it is (N^2 - 1)/3; direct
summation is checked against these identities, and the fitted bounds are
checked against exact search / bisection companions.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfsense.capacity import (CapacityQuery, FitParams, _dd_min_search, _mirror_sums,
                              capacity_curve, delta_d_min, delta_d_min_exact,
                              mirror_series, n_max, n_max_exact, radial_series,
                              refit_mirror, refit_radial, write_capacity_csv)
from nfsense.geometry import RadioConfig

import capacity_reference as ref
from capacity_reference import mirror_fit, radial_fit


def csc4_identity(n):
    return (n ** 4 + 10 * n ** 2 - 11) / 45.0


def csc2_identity(n):
    return (n ** 2 - 1) / 3.0


def paper_query(r, delta_r=0.1, beta=50.0, k=2):
    return CapacityQuery(r=r, delta_r=delta_r, beta=beta, cfg=RadioConfig(), K=k)


class TestRadialSeries:
    def test_exact_small_values(self):
        assert radial_series(4, 4.0) == pytest.approx(9.0, rel=1e-12)
        assert radial_series(3, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_matches_cosecant_identities(self):
        for n in range(3, 61):
            assert radial_series(n, 4.0) == pytest.approx(csc4_identity(n), rel=1e-10)
            assert radial_series(n, 2.0) == pytest.approx(csc2_identity(n), rel=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            radial_series(2, 4.0)

    def test_strictly_increasing_in_n_and_alpha(self):
        for alpha in (2.0, 3.0, 4.0):
            vals = [radial_series(n, alpha) for n in range(3, 61)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for n in (3, 10, 37, 60):
            vals = [radial_series(n, a) for a in np.linspace(2.0, 4.0, 9)]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestRadialFit:
    def test_constant_when_p1_degenerate(self):
        params = FitParams(p1=1e-300, p2=1.0, p3=7.5)
        assert radial_fit(5, params) == pytest.approx(7.5)
        assert radial_fit(50, params) == pytest.approx(7.5)

    def test_paper_settings_error_at_n20(self):
        err = abs(radial_fit(20) - radial_series(20, 4.0)) / radial_series(20, 4.0)
        assert err < 0.05

    def test_refit_close_to_paper_coefficients(self):
        p1, p2, p3 = refit_radial(4.0)
        assert p2 == pytest.approx(3.99, abs=0.05)
        assert p1 == pytest.approx(0.0230, rel=0.25)

    def test_refit_other_alpha_tracks_series(self):
        p1, p2, p3 = refit_radial(3.0)
        params = FitParams(p1=p1, p2=p2, p3=p3)
        for n in (20, 40, 60):
            assert radial_fit(n, params) == pytest.approx(radial_series(n, 3.0), rel=0.08)


class TestMirrorSeries:
    def test_exact_values(self):
        assert mirror_series(1, math.pi / 3, 4.0) == pytest.approx(16.0, rel=1e-12)
        # K=2, phi=pi/6: csc^4(pi/12) + csc^4(pi/6)
        expected = math.sin(math.pi / 12) ** -4 + math.sin(math.pi / 6) ** -4
        assert mirror_series(2, math.pi / 6, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_counts_terms(self):
        assert mirror_series(3, math.pi / 8, 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mirror_series(2, 0.0, 4.0)
        with pytest.raises(ValueError):
            mirror_series(2, 2.0 * math.pi / 5 + 0.01, 4.0)

    def test_paper_fit_quality_on_stated_domain(self):
        worst = 0.0
        for phi in np.linspace(math.pi / 180, math.pi / 5, 300):
            exact = mirror_series(2, phi, 4.0)
            worst = max(worst, abs(mirror_fit(phi) - exact) / exact)
        assert worst < 0.10

    def test_refit_mirror_close_to_paper(self):
        q1, q2, q3 = refit_mirror(4.0, 2)
        assert q2 == pytest.approx(-4.0, abs=0.1)
        assert q1 == pytest.approx(1.06, rel=0.15)


class TestNMax:
    def test_paper_peak_is_51(self):
        values = {}
        for i in range(371):
            r = 0.30 + 0.01 * i
            values[round(r, 2)] = n_max(paper_query(r))
        assert max(values.values()) == 51
        band = [r for r, v in values.items() if v == 51]
        assert min(band) == pytest.approx(2.94, abs=0.05)
        assert max(band) == pytest.approx(3.35, abs=0.05)

    def test_exact_search_agrees_at_peak(self):
        q = paper_query(3.0)
        assert n_max(q) == n_max_exact(q) == 51

    def test_infeasible_when_headroom_negative(self):
        # delta_r so large the subject's own power cannot clear the threshold
        q = CapacityQuery(r=10.0, delta_r=9.0, beta=50.0, cfg=RadioConfig())
        assert n_max(q) == 0
        assert n_max_exact(q) == 0

    def test_fit_vs_exact_within_one_in_the_fit_regime(self):
        # The power-law fit is only faithful for N >= ~10: its constant term
        # (p3 = 38) dwarfs the true series near N = 3, so the agreement claim
        # is asserted where the fitted bound is at least 10.
        for r in np.arange(0.8, 3.7, 0.02):
            q = paper_query(float(r))
            fit = n_max(q)
            if fit >= 10:
                assert abs(fit - n_max_exact(q)) <= 1

    def test_monotone_in_beta_and_delta_r(self):
        for r in (1.0, 2.0, 3.0):
            by_beta = [n_max(paper_query(r, beta=b)) for b in (10, 30, 50, 100, 300)]
            assert all(a >= b for a, b in zip(by_beta, by_beta[1:]))
            by_dr = [n_max(paper_query(r, delta_r=d)) for d in (0.05, 0.1, 0.2, 0.3)]
            assert all(a >= b for a, b in zip(by_dr, by_dr[1:]))


class TestDeltaDMin:
    def test_flat_region_value(self):
        # around r = 1 m the bound sits near 0.32 m
        dd = delta_d_min(paper_query(1.0))
        assert dd == pytest.approx(0.3216, abs=0.002)

    def test_bisection_oracle_agrees_within_ten_percent(self):
        for r in np.arange(0.35, 3.76, 0.05):
            q = paper_query(float(r))
            fit = delta_d_min(q)
            exact = delta_d_min_exact(q)
            if math.isnan(fit) or math.isnan(exact):
                continue
            assert fit == pytest.approx(exact, rel=0.10)

    def test_infeasible_marker_beyond_boundary(self):
        assert math.isnan(delta_d_min(paper_query(3.9)))
        assert math.isnan(delta_d_min_exact(paper_query(3.9)))
        # below the inner boundary the spacing would exceed the layout cap
        assert math.isnan(delta_d_min(paper_query(0.30)))

    def test_monotone_in_beta(self):
        vals = [delta_d_min(paper_query(2.0, beta=b)) for b in (10, 30, 50, 150)]
        assert all(not math.isnan(v) for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCapacityCurve:
    def test_empty_range(self):
        assert capacity_curve(RadioConfig(), 50.0, 0.1, 2.0, 1.0, 0.01) == []

    def test_rise_then_fall_shape(self):
        rows = capacity_curve(RadioConfig(), 50.0, 0.1, 0.3, 4.0, 0.05)
        n = [row.n_max_fit for row in rows]
        peak = int(np.argmax(n))
        assert 0 < peak < len(n) - 1
        assert all(a <= b for a, b in zip(n[:peak], n[1:peak + 1]))
        assert all(a >= b for a, b in zip(n[peak:], n[peak + 1:]))

    def test_csv_columns(self, tmp_path):
        rows = capacity_curve(RadioConfig(), 50.0, 0.1, 1.0, 1.2, 0.1)
        path = tmp_path / "capacity.csv"
        write_capacity_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r_m,n_max_fit,n_max_exact,dd_min_fit_m,dd_min_exact_m,feasible"
        assert len(lines) == len(rows) + 1


class TestQueryValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CapacityQuery(r=0.05, delta_r=0.1, beta=50.0, cfg=RadioConfig())
        with pytest.raises(ValueError):
            CapacityQuery(r=1.0, delta_r=0.1, beta=0.0, cfg=RadioConfig())
        with pytest.raises(ValueError):
            CapacityQuery(r=1.0, delta_r=0.1, beta=50.0, cfg=RadioConfig(), K=0)
        with pytest.raises(ValueError):
            FitParams(q2=1.0)


def row_bits(rows):
    """Every field of every row, floats as their 8 bytes and types kept."""
    return [tuple((type(v), struct.pack("<d", v) if isinstance(v, float) else v)
                  for v in dataclasses.astuple(row)) for row in rows]


class TestMatchesScalarReference:
    """The sweep searches against the scalar ones they replaced
    (``tests/capacity_reference.py``, kept verbatim), bit for bit."""

    @pytest.mark.parametrize("alpha", [4.0, 3.0, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_curve_bits(self, alpha, k):
        cfg = dataclasses.replace(RadioConfig(), alpha=alpha)
        for beta, delta_r in ((50.0, 0.1), (10.0, 0.05), (300.0, 0.2)):
            rows = capacity_curve(cfg, beta, delta_r, 0.3, 4.0, 0.05, k)
            assert row_bits(rows) == row_bits(ref.capacity_rows(cfg, beta, delta_r,
                                                                0.3, 4.0, 0.05, k))

    def test_paper_sweep_bits_and_headroom_exit(self):
        rows = capacity_curve(RadioConfig(), 50.0, 0.1, 0.3, 4.0, 0.01)
        assert row_bits(rows) == row_bits(ref.capacity_rows(RadioConfig(), 50.0, 0.1,
                                                            0.3, 4.0, 0.01))
        # the sweep's far end has no headroom left: both searches exit early there
        dead = [row for row in rows
                if ref._headroom(paper_query(row.r)) <= 0.0]
        assert dead and all(row.n_max_exact == 0 and math.isnan(row.dd_min_exact)
                            for row in dead)

    def test_floor_exit_among_bisected_queries(self):
        # tiny beta leaves so much headroom that phi = 1e-12 already clears rhs
        qs = [paper_query(r, beta=beta, k=3)
              for r in (0.5, 1.5, 3.0, 3.9) for beta in (1e-60, 1e-40, 50.0)]
        expected = [ref.delta_d_min_exact(q) for q in qs]
        assert any(v == 2.0 * q.r * math.sin(0.5e-12) for q, v in zip(qs, expected))
        assert any(math.isnan(v) for v in expected)
        assert (struct.pack(f"<{len(qs)}d", *_dd_min_search(qs))
                == struct.pack(f"<{len(qs)}d", *expected))
        for q, v in zip(qs, expected):
            assert struct.pack("<d", delta_d_min_exact(q)) == struct.pack("<d", v)

    @given(r=st.floats(0.3, 4.0), alpha=st.sampled_from([4.0, 3.0, 2.5]),
           beta=st.sampled_from([10.0, 50.0, 300.0]), delta_r=st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=300, deadline=None)
    def test_one_query_n_max(self, r, alpha, beta, delta_r):
        q = CapacityQuery(r=r, delta_r=delta_r, beta=beta,
                          cfg=dataclasses.replace(RadioConfig(), alpha=alpha))
        assert n_max_exact(q) == ref.n_max_exact(q)

    def test_search_cap_overflow(self):
        # without the dynamic-channel term the headroom never runs out, so at
        # r = 1e5 the radial layout would hold more than a million subjects
        cfg = dataclasses.replace(RadioConfig(), b=0.0)
        for args in ((1e5, 1e5, 1.0), (1.0, 1e5 + 1.0, 5e4)):
            with pytest.raises(OverflowError, match="exceeded 1000000"):
                ref.capacity_rows(cfg, 50.0, 0.1, *args)
            with pytest.raises(OverflowError, match="exceeded 1000000"):
                capacity_curve(cfg, 50.0, 0.1, *args)
        with pytest.raises(OverflowError):
            n_max_exact(CapacityQuery(r=1e5, delta_r=0.1, beta=50.0, cfg=cfg))

    @pytest.mark.parametrize("alpha", [4.0, 2.5])
    def test_series_bits(self, alpha):
        # refit_mirror's y column is one _mirror_sums grid over its phi range
        for k in (1, 2, 5, 9):
            phi = np.linspace(math.pi / 180, 2.0 * math.pi / (2 * k + 1), 200)
            expected = np.array([ref.mirror_series(k, float(p), alpha) for p in phi])
            assert _mirror_sums(k, phi, alpha).tobytes() == expected.tobytes()
            assert (np.array([mirror_series(k, float(p), alpha) for p in phi]).tobytes()
                    == expected.tobytes())
