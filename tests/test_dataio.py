"""Ingestion, alignment, synthetic generation, and bundle round trips."""

import json
import os

import numpy as np
import pytest

from conftest import small_synthetic
from mobicast.dataio import (CountryDataset, RawCountryData, SyntheticConfig,
                             align_and_filter, generate_synthetic, load_bundle,
                             load_cases, load_mobility, load_region_map,
                             save_bundle)
from mobicast.errors import BundleError, DataError

REGIONS = ["a", "b", "c"]


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


class TestLoadMobility:
    def test_same_day_recordings_are_summed(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,0,a,b,10\n"
                     "2020-03-01,1,a,b,5\n"
                     "2020-03-01,2,a,b,0\n")
        out = load_mobility(path, REGIONS)
        assert out["2020-03-01"][1, 0] == 15.0  # row=destination b, col=origin a

    def test_missing_pair_is_zero(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,0,a,b,10\n")
        out = load_mobility(path, REGIONS)
        assert out["2020-03-01"][2, 0] == 0.0  # a -> c never recorded

    def test_self_loop_on_diagonal(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,1,a,a,7\n")
        out = load_mobility(path, REGIONS)
        assert out["2020-03-01"][0, 0] == 7.0

    def test_preaggregated_variant(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,origin,destination,count\n"
                     "2020-03-01,b,c,4.5\n")
        out = load_mobility(path, REGIONS)
        assert out["2020-03-01"][2, 1] == 4.5

    def test_unknown_region_is_named(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,0,zz,b,1\n")
        with pytest.raises(DataError, match="zz"):
            load_mobility(path, REGIONS)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,0,a,b,-2\n")
        with pytest.raises(DataError, match=">= 0"):
            load_mobility(path, REGIONS)

    def test_bad_date_reports_line(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "03/01/2020,0,a,b,1\n")
        with pytest.raises(DataError, match=":2:"):
            load_mobility(path, REGIONS)

    def test_bad_time_of_day(self, tmp_path):
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,3,a,b,1\n")
        with pytest.raises(DataError, match="time_of_day"):
            load_mobility(path, REGIONS)

    def test_region_map_applied(self, tmp_path):
        mpath = write(tmp_path / "map.csv",
                      "source_name,region_id\nAlpha Province,a\n")
        path = write(tmp_path / "m.csv",
                     "date,time_of_day,origin,destination,count\n"
                     "2020-03-01,0,Alpha Province,b,3\n")
        out = load_mobility(path, REGIONS, region_map=load_region_map(mpath))
        assert out["2020-03-01"][1, 0] == 3.0


class TestLoadCases:
    def test_basic_placement(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,12\n"
                     "2020-03-02,b,3\n")
        dates, matrix, stats = load_cases(path, REGIONS)
        assert dates == ("2020-03-01", "2020-03-02")
        assert matrix[0, 0] == 12.0 and matrix[1, 1] == 3.0
        assert stats.clamped == 0

    def test_negative_clamped_and_counted(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,5\n"
                     "2020-03-02,a,-3\n")
        _, matrix, stats = load_cases(path, REGIONS)
        assert matrix[0, 1] == 0.0
        assert stats.clamped == 1

    def test_missing_pairs_counted(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,1\n"
                     "2020-03-03,a,2\n")
        dates, matrix, stats = load_cases(path, REGIONS)
        assert dates == ("2020-03-01", "2020-03-02", "2020-03-03")
        assert matrix[0, 1] == 0.0
        assert stats.missing == 9 - 2  # 3 regions x 3 days minus two records

    def test_bad_date_reports_line(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,1\n"
                     "bad-date,a,1\n")
        with pytest.raises(DataError, match=":3:"):
            load_cases(path, REGIONS)

    def test_explicit_date_universe(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,1\n"
                     "2020-03-05,a,9\n")
        dates, matrix, _ = load_cases(path, REGIONS,
                                      dates=["2020-03-04", "2020-03-05"])
        assert dates == ("2020-03-04", "2020-03-05")
        assert matrix[0, 1] == 9.0  # record outside the span is ignored


class TestAlignAndFilter:
    def _raw(self, case_days, mob_days, cases):
        mobility = {d: np.full((2, 2), 5.0) for d in mob_days}
        return RawCountryData("X", ("a", "b"), mobility, tuple(case_days),
                              np.asarray(cases, dtype=float))

    def test_dates_intersected(self):
        raw = self._raw(["2020-03-03", "2020-03-04", "2020-03-05", "2020-03-06"],
                        ["2020-03-05", "2020-03-06"],
                        [[10, 10, 10, 10], [10, 10, 10, 10]])
        ds = align_and_filter(raw)
        assert ds.dates == ("2020-03-05", "2020-03-06")

    def test_low_case_region_dropped_at_boundary(self):
        days = ["2020-03-01", "2020-03-02"]
        raw = self._raw(days, days, [[5, 4], [5, 5]])  # totals 9 and 10
        ds = align_and_filter(raw)
        assert ds.regions == ("b",)
        assert ds.cases.shape == (1, 2)
        assert ds.mobility[0].shape == (1, 1)

    def test_no_survivor_is_an_error(self):
        days = ["2020-03-01"]
        raw = self._raw(days, days, [[1], [2]])
        with pytest.raises(DataError, match="10"):
            align_and_filter(raw)

    def test_no_overlap_is_an_error(self):
        raw = self._raw(["2020-03-01"], ["2020-04-01"], [[10], [10]])
        with pytest.raises(DataError, match="overlap"):
            align_and_filter(raw)

    def test_gap_in_intersection_is_an_error(self):
        days = ["2020-03-01", "2020-03-02", "2020-03-03"]
        raw = self._raw(days, ["2020-03-01", "2020-03-03"],
                        [[10, 10, 10], [10, 10, 10]])
        with pytest.raises(DataError, match="contiguous"):
            align_and_filter(raw)


class TestCountryDataset:
    def _ds(self):
        return CountryDataset("X", ["a", "b"], ["2020-03-01", "2020-03-02", "2020-03-03"],
                              [[1, 2, 3], [4, 5, 6]],
                              [np.eye(2)] * 3)

    def test_accessors_are_one_based(self):
        ds = self._ds()
        np.testing.assert_array_equal(ds.cases_on(1), [1, 4])
        np.testing.assert_array_equal(ds.cases_on(3), [3, 6])
        np.testing.assert_array_equal(ds.case_window(3, 2), [[2, 3], [5, 6]])
        np.testing.assert_array_equal(ds.mobility_on(2), np.eye(2))

    def test_window_before_start_is_an_error(self):
        with pytest.raises(DataError, match="before day 1"):
            self._ds().case_window(1, 2)

    def test_day_out_of_range(self):
        with pytest.raises(DataError):
            self._ds().cases_on(4)
        with pytest.raises(DataError):
            self._ds().cases_on(0)

    def test_arrays_immutable(self):
        ds = self._ds()
        with pytest.raises(ValueError):
            ds.cases[0, 0] = 99.0

    def test_invalid_construction(self):
        with pytest.raises(DataError, match="duplicate"):
            CountryDataset("X", ["a", "a"], ["2020-03-01"], [[1], [2]], [np.eye(2)])
        with pytest.raises(DataError, match="contiguous"):
            CountryDataset("X", ["a"], ["2020-03-01", "2020-03-03"],
                           [[1, 2]], [np.eye(1)] * 2)
        with pytest.raises(DataError, match="negative mobility"):
            CountryDataset("X", ["a"], ["2020-03-01"], [[1]], [np.array([[-1.0]])])


class TestSyntheticGeneration:
    def test_deterministic_per_seed(self):
        a = small_synthetic(seed=5)
        b = small_synthetic(seed=5)
        np.testing.assert_array_equal(a.cases, b.cases)
        for ma, mb in zip(a.mobility, b.mobility):
            np.testing.assert_array_equal(ma, mb)
        assert not np.array_equal(small_synthetic(seed=6).cases, a.cases)

    def test_zero_rate_kills_transmission(self):
        cfg = SyntheticConfig(n_regions=4, n_days=20, n_countries=1,
                              base_rate=0.0, underreporting=1.0,
                              noise_seed=3, jitter=False)
        ds = generate_synthetic(cfg)[0]
        nonzero_days = np.flatnonzero(ds.cases.sum(axis=0))
        assert len(nonzero_days) <= 1  # only the outbreak injection day
        assert (ds.cases > 0).sum() <= 1  # and only the seeded region

    def test_no_jitter_gives_integral_cases(self):
        cfg = SyntheticConfig(n_regions=4, n_days=25, n_countries=1,
                              underreporting=1.0, noise_seed=1, jitter=False)
        ds = generate_synthetic(cfg)[0]
        np.testing.assert_array_equal(ds.cases, np.round(ds.cases))
        assert ds.cases.max() > 10  # the epidemic actually grows

    def test_growth_phase_total_is_nondecreasing(self):
        cfg = SyntheticConfig(n_regions=8, n_days=40, n_countries=1,
                              base_rate=1.5, self_loop_strength=4.0,
                              underreporting=1.0, noise_seed=2, jitter=False)
        ds = generate_synthetic(cfg)[0]
        totals = ds.cases.sum(axis=0)
        start = int(np.flatnonzero(totals)[0])
        wave_len = max(10, cfg.n_days // 3)
        growth = totals[start:start + wave_len]
        assert np.all(np.diff(growth) >= 0)

    def test_outbreaks_are_staggered(self):
        cfg = SyntheticConfig(n_regions=5, n_days=60, n_countries=3,
                              underreporting=1.0, noise_seed=4, jitter=False)
        data = generate_synthetic(cfg)
        starts = [int(np.flatnonzero(ds.cases.sum(axis=0))[0]) for ds in data]
        assert starts == sorted(starts) and len(set(starts)) == 3

    def test_epidemic_spreads_beyond_seed_region(self):
        ds = small_synthetic(seed=7, n=6, days=40)
        infected_regions = (ds.cases.sum(axis=1) > 0).sum()
        assert infected_regions >= 4

    def test_config_validation(self):
        with pytest.raises(DataError):
            SyntheticConfig(n_regions=0)
        with pytest.raises(DataError):
            SyntheticConfig(underreporting=1.5)


class TestBundles:
    def test_round_trip_is_lossless(self, tmp_path):
        ds = small_synthetic(seed=9, n=4, days=12)
        save_bundle(ds, str(tmp_path / "b"))
        back = load_bundle(str(tmp_path / "b"))
        assert back.country == ds.country
        assert back.regions == ds.regions
        assert back.dates == ds.dates
        np.testing.assert_array_equal(back.cases, ds.cases)
        for ma, mb in zip(ds.mobility, back.mobility):
            np.testing.assert_array_equal(ma, mb)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleError, match="manifest"):
            load_bundle(str(tmp_path))

    def test_region_count_mismatch(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest["n"] = 99
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError):
            load_bundle(str(bdir))

    def test_unsupported_version(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest["format_version"] = "2"
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="format_version"):
            load_bundle(str(bdir))

    def test_missing_mobility_file(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        os.remove(bdir / "mobility" / f"{ds.dates[3]}.csv")
        with pytest.raises(BundleError, match=ds.dates[3]):
            load_bundle(str(bdir))

    def saved(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        return ds, bdir

    def test_parsed_matrices_match_per_cell_float(self, tmp_path):
        ds = small_synthetic(seed=5, n=12, days=10)
        save_bundle(ds, str(tmp_path / "b"))
        back = load_bundle(str(tmp_path / "b"))
        for date, mat in zip(ds.dates, back.mobility):
            text = (tmp_path / "b" / "mobility" / f"{date}.csv").read_text()
            cells = [[float(v) for v in line.split(",")]
                     for line in text.splitlines() if line]
            assert mat.dtype == np.float64
            assert mat.tobytes() == np.array(cells).tobytes()

    def test_quoted_cells_still_parse(self, tmp_path):
        ds, bdir = self.saved(tmp_path)
        path = bdir / "mobility" / f"{ds.dates[2]}.csv"
        text = path.read_text()
        path.write_text("\n".join(",".join(f'"{v}"' for v in line.split(","))
                                  for line in text.splitlines()) + "\n")
        np.testing.assert_array_equal(load_bundle(str(bdir)).mobility[2],
                                      ds.mobility[2])

    def mangle_matrix(self, tmp_path, edit):
        ds, bdir = self.saved(tmp_path)
        path = bdir / "mobility" / f"{ds.dates[4]}.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return bdir, f"{ds.dates[4]}.csv"

    def test_non_numeric_mobility_cell_names_file_and_line(self, tmp_path):
        def edit(lines):
            cells = lines[1].split(",")
            cells[2] = "abc"
            return [lines[0], ",".join(cells), *lines[2:]]

        bdir, name = self.mangle_matrix(tmp_path, edit)
        with pytest.raises(BundleError, match=f"{name}:2: non-numeric cell 'abc'"):
            load_bundle(str(bdir))

    def test_ragged_mobility_row_names_file_and_line(self, tmp_path):
        bdir, name = self.mangle_matrix(
            tmp_path, lambda lines: [lines[0], lines[1], lines[2].rsplit(",", 1)[0]])
        with pytest.raises(BundleError, match=f"{name}:3: 2 cells, expected a dense 3x3"):
            load_bundle(str(bdir))

    def test_wrong_mobility_row_count(self, tmp_path):
        bdir, name = self.mangle_matrix(tmp_path, lambda lines: lines + lines[:1])
        with pytest.raises(BundleError, match=f"{name}: 4 rows, expected a dense 3x3"):
            load_bundle(str(bdir))
        bdir, name = self.mangle_matrix(tmp_path, lambda lines: lines[:2])
        with pytest.raises(BundleError, match=f"{name}: 2 rows"):
            load_bundle(str(bdir))

    def test_empty_mobility_file(self, tmp_path):
        bdir, name = self.mangle_matrix(tmp_path, lambda lines: [])
        with pytest.raises(BundleError, match=f"{name}: 0 rows"):
            load_bundle(str(bdir))

    def test_non_numeric_case_count_names_file_and_line(self, tmp_path):
        _, bdir = self.saved(tmp_path)
        path = bdir / "cases.csv"
        lines = path.read_text().splitlines()
        date, region, _ = lines[5].split(",")
        lines[5] = f"{date},{region},xyz"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match="cases.csv:6: non-numeric cell 'xyz'"):
            load_bundle(str(bdir))

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = small_synthetic(seed=11, n=3, days=6)
        save_bundle(ds, str(tmp_path / "x"))
        save_bundle(ds, str(tmp_path / "y"))
        for name in ["manifest.json", "cases.csv", f"mobility/{ds.dates[0]}.csv"]:
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
