"""Ingestion, alignment, synthetic generation, and bundle round trips."""

import ast
import csv
import glob
import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from conftest import save_regionless_bundle, small_synthetic
from mobicast.cli import main
from mobicast.dataio import (CountryDataset, SyntheticConfig,
                             _csv_rows, align_and_filter, generate_synthetic, load_bundle,
                             load_cases, load_mobility, load_region_map,
                             make_dir, read_file, read_lines, save_bundle,
                             write_file)
from mobicast.errors import BundleError, CheckpointError, DataError, WriteError

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

    def test_faults_are_logged(self, tmp_path, caplog):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,5\n"
                     "2020-03-02,a,-3\n")
        with caplog.at_level("WARNING", logger="mobicast.dataio"):
            load_cases(path, REGIONS)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: clamped 1 negative case values to 0",
            f"{path}: 4 (region, day) pairs absent, filled with 0"]

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

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_count_reports_line(self, tmp_path, count):
        # a NaN total would otherwise drop the region as "low-case" silently
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,20\n"
                     f"2020-03-01,b,{count}\n")
        with pytest.raises(DataError, match=r"c\.csv:3: case count must be finite"):
            load_cases(path, REGIONS)


    def test_repeated_pair_names_its_line(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,a,5\n"
                     "2020-03-01,b,1\n"
                     "2020-03-01,a,7\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:4: repeats region 'a' on 2020-03-01")):
            load_cases(path, REGIONS)

    def test_pair_repeated_through_region_map_rejected(self, tmp_path):
        mpath = write(tmp_path / "map.csv", "source_name,region_id\nx1,a\nx2,a\n")
        path = write(tmp_path / "c.csv",
                     "date,region,new_cases\n"
                     "2020-03-01,x1,5\n"
                     "2020-03-01,x2,7\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:3: repeats region 'a' on 2020-03-01")):
            load_cases(path, REGIONS, region_map=load_region_map(mpath))


class TestCsvReader:
    """Every table dataio reads shares one reader: its header, width and
    read faults name the file and line."""

    LOADERS = [
        pytest.param(load_region_map, "source_name,region_id", "x,a\n", id="map"),
        pytest.param(lambda p: load_cases(p, REGIONS), "date,region,new_cases",
                     "2020-03-01,a,1\n", id="cases"),
        pytest.param(lambda p: load_mobility(p, REGIONS), "date,origin,destination,count",
                     "2020-03-01,a,b,1\n", id="mobility"),
    ]

    @pytest.mark.parametrize("load,header,row", LOADERS)
    def test_missing_file_names_path(self, tmp_path, load, header, row):
        path = str(tmp_path / "absent.csv")
        with pytest.raises(DataError, match=f"^cannot read {re.escape(path)}: "):
            load(path)

    @pytest.mark.parametrize("load,header,row", LOADERS)
    def test_wrong_header_names_expected_one(self, tmp_path, load, header, row):
        path = write(tmp_path / "t.csv", "what,ever\n" + row)
        with pytest.raises(DataError, match=r"t\.csv: expected header (.* or )?"
                           + re.escape(f"{header}, got 'what,ever'")):
            load(path)
        empty = write(tmp_path / "e.csv", "")
        with pytest.raises(DataError, match=r"e\.csv: expected header .*, got ''$"):
            load(empty)

    @pytest.mark.parametrize("load,header,row", LOADERS)
    def test_blank_rows_skipped_and_width_checked(self, tmp_path, load, header, row):
        width = header.count(",") + 1
        load(write(tmp_path / "ok.csv", f" {header.replace(',', ' , ')}\n\n{row}\n"))
        path = write(tmp_path / "t.csv", f"{header}\n{row}\n{row.rstrip()},extra\n")
        with pytest.raises(DataError, match=re.escape(
                f"t.csv:4: expected {width} columns, got {width + 1}")):
            load(path)

    @pytest.mark.parametrize("load,header,row", LOADERS)
    def test_non_utf8_file_names_path(self, tmp_path, load, header, row):
        path = tmp_path / "t.csv"
        path.write_bytes(f"{header}\n".encode() + b"\xff\xfe,a,1\n")
        with pytest.raises(DataError, match="cannot read .*t.csv: .*utf-8"):
            load(str(path))

    def test_header_is_checked_on_call_and_rows_one_at_a_time(self, tmp_path):
        path = write(tmp_path / "t.csv", "date,region,new_cases\n\n2020-03-01,a,1\n"
                                         "2020-03-02,a\n")
        with pytest.raises(DataError, match="t.csv: expected header source_name"):
            _csv_rows(path, "source_name,region_id")   # before any row is asked for
        header, rows = _csv_rows(path, "date,region,new_cases")
        assert header == "date,region,new_cases"
        assert next(rows) == (3, ["2020-03-01", "a", "1"])
        with pytest.raises(DataError, match=re.escape("t.csv:4: expected 3 columns, got 2")):
            next(rows)

    @pytest.mark.parametrize("load,header,row", LOADERS)
    def test_first_fault_in_file_order_is_reported(self, tmp_path, load, header, row):
        # line 2 names an unknown region, line 3 has the wrong width, and a
        # byte past both, in the next 8 KiB read, is not UTF-8
        bad = ",".join(["2020-03-01", "zz", "zz", "1"][:header.count(",") + 1])
        if load is load_region_map:
            bad = "x,a\nx"   # no per-row check: a width fault on line 3 only
        path = tmp_path / "t.csv"
        path.write_bytes(f"{header}\n{bad}\n{row.rstrip()},extra\n".encode()
                         + b"#" * 10_000 + b"\xff\n")
        first = (r"t\.csv:3: expected \d columns" if load is load_region_map
                 else r"t\.csv:2: unknown region id 'zz'")
        with pytest.raises(DataError, match=first):
            load(str(path))

    def test_rows_are_streamed_in_bounded_memory(self, tmp_path):
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,region,new_cases\n")
            fh.writelines(f"2020-03-{1 + k % 28:02d},R{k % 1000:04d},{k % 97}.0\n"
                          for k in range(200_000))
        tracemalloc.start()
        try:
            _, rows = _csv_rows(str(path), "date,region,new_cases")
            count = sum(1 for _ in rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 200_000
        # measured: 0.04 MB streamed, against 66 MB for a list of every row
        assert peak < 1 << 20

    def test_mobility_accepts_either_header(self, tmp_path):
        path = write(tmp_path / "m.csv", "date,time_of_day,origin,destination\n")
        with pytest.raises(DataError, match="expected header date,time_of_day,origin,"
                           "destination,count or date,origin,destination,count, got"):
            load_mobility(path, REGIONS)


class TestAlignAndFilter:
    def _raw(self, case_days, mob_days, cases):
        mobility = {d: np.full((2, 2), 5.0) for d in mob_days}
        return "X", ("a", "b"), mobility, tuple(case_days), np.asarray(cases, dtype=float)

    def test_dates_intersected(self):
        raw = self._raw(["2020-03-03", "2020-03-04", "2020-03-05", "2020-03-06"],
                        ["2020-03-05", "2020-03-06"],
                        [[10, 10, 10, 10], [10, 10, 10, 10]])
        ds = align_and_filter(*raw)
        assert ds.dates == ("2020-03-05", "2020-03-06")

    def test_low_case_region_dropped_at_boundary(self):
        days = ["2020-03-01", "2020-03-02"]
        raw = self._raw(days, days, [[5, 4], [5, 5]])  # totals 9 and 10
        ds = align_and_filter(*raw)
        assert ds.regions == ("b",)
        assert ds.cases.shape == (1, 2)
        assert ds.mobility[0].shape == (1, 1)

    def test_no_survivor_is_an_error(self):
        days = ["2020-03-01"]
        raw = self._raw(days, days, [[1], [2]])
        with pytest.raises(DataError, match="10"):
            align_and_filter(*raw)

    def test_no_overlap_is_an_error(self):
        raw = self._raw(["2020-03-01"], ["2020-04-01"], [[10], [10]])
        with pytest.raises(DataError, match="overlap"):
            align_and_filter(*raw)

    def test_gap_in_intersection_is_an_error(self):
        days = ["2020-03-01", "2020-03-02", "2020-03-03"]
        raw = self._raw(days, ["2020-03-01", "2020-03-03"],
                        [[10, 10, 10], [10, 10, 10]])
        with pytest.raises(DataError, match="contiguous"):
            align_and_filter(*raw)


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
        with pytest.raises(ValueError):
            ds.mobility_on(1)[0, 0] = 99.0

    def test_mobility_is_one_contiguous_array(self):
        ds = self._ds()
        assert ds.mobility.shape == (3, 2, 2) and ds.mobility.dtype == np.float64
        assert ds.mobility.flags.c_contiguous
        assert np.shares_memory(ds.mobility_on(2), ds.mobility)
        # a writable input is copied, a frozen one kept as it is
        mine = np.ones((3, 2, 2))
        ds = CountryDataset(ds.country, ds.regions, ds.dates, ds.cases, mine)
        mine[0, 0, 0] = 5.0
        assert ds.mobility[0, 0, 0] == 1.0 and mine.flags.writeable
        mine.setflags(write=False)
        assert CountryDataset(ds.country, ds.regions, ds.dates, ds.cases,
                              mine).mobility is mine

    def test_mobility_list_is_not_copied_twice(self):
        # a (90, 100, 100) country: asarray builds the array, nothing copies it
        days, n = 90, 100
        dates = [str(np.datetime64("2020-03-01") + k) for k in range(days)]
        mats = [np.full((n, n), float(k)) for k in range(days)]
        cases = np.zeros((n, days))
        tracemalloc.start()
        try:
            ds = CountryDataset("X", range(n), dates, cases, mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.mobility.nbytes
        assert ds.mobility[89, 0, 0] == 89.0 and not ds.mobility.flags.writeable

    def test_mobility_checks_build_no_full_size_temporary(self):
        days, n = 90, 100
        dates = [str(np.datetime64("2020-03-01") + k) for k in range(days)]
        mobility = np.ones((days, n, n))
        mobility.setflags(write=False)   # kept as it is, so only the checks allocate
        tracemalloc.start()
        try:
            CountryDataset("X", range(n), dates, np.zeros((n, days)), mobility)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one full boolean mask would be an eighth of the array
        assert peak < 0.05 * mobility.nbytes

    def test_non_finite_mobility_reported_before_negative(self):
        mobility = np.ones((3, 2, 2))
        mobility[0, 1, 0] = -1.0
        mobility[2, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite mobility entry on 2020-03-03"):
            CountryDataset("X", ["a", "b"], ["2020-03-01", "2020-03-02", "2020-03-03"],
                           [[1, 2, 3], [4, 5, 6]], mobility)
        mobility[2, 0, 0] = 1.0
        with pytest.raises(DataError, match="negative mobility entry on 2020-03-01"):
            CountryDataset("X", ["a", "b"], ["2020-03-01", "2020-03-02", "2020-03-03"],
                           [[1, 2, 3], [4, 5, 6]], mobility)

    def test_invalid_construction(self):
        with pytest.raises(DataError, match="duplicate"):
            CountryDataset("X", ["a", "a"], ["2020-03-01"], [[1], [2]], [np.eye(2)])
        with pytest.raises(DataError, match="contiguous"):
            CountryDataset("X", ["a"], ["2020-03-01", "2020-03-03"],
                           [[1, 2]], [np.eye(1)] * 2)
        with pytest.raises(DataError, match="negative mobility"):
            CountryDataset("X", ["a"], ["2020-03-01"], [[1]], [np.array([[-1.0]])])
        with pytest.raises(DataError, match=re.escape("mobility shape (1, 2, 2), "
                                                      "expected (2, 2, 2)")):
            CountryDataset("X", ["a", "b"], ["2020-03-01", "2020-03-02"],
                           [[1, 2], [3, 4]], [np.eye(2)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mobility_names_date(self, value):
        mobility = np.ones((3, 2, 2))
        mobility[1, 0, 1] = value
        with pytest.raises(DataError, match="non-finite mobility entry on 2020-03-02"):
            CountryDataset("X", ["a", "b"], ["2020-03-01", "2020-03-02", "2020-03-03"],
                           [[1, 2, 3], [4, 5, 6]], mobility)

    @pytest.mark.parametrize("name", ["Bolzano, South Tyrol", "line\nbreak",
                                      "carriage\rreturn"])
    def test_id_that_report_rows_cannot_hold_rejected(self, name):
        # rows.csv does not quote its cells
        with pytest.raises(DataError, match=re.escape(repr(name))):
            CountryDataset("X", ["a", name], ["2020-03-01"], [[1], [2]],
                           [np.eye(2)])
        with pytest.raises(DataError, match="comma or line break"):
            CountryDataset(name, ["a"], ["2020-03-01"], [[1]], [np.eye(1)])

    @pytest.mark.parametrize("country", ["../evil", "a/b", "nul\x00"],
                             ids=["dotdot", "slash", "nul"])
    def test_country_id_that_file_names_cannot_hold_rejected(self, country):
        # checkpoint file names carry the country id; region ids name no file
        with pytest.raises(DataError, match=re.escape(f"country id {country!r} contains "
                                                      "a path separator or NUL")):
            CountryDataset(country, ["a"], ["2020-03-01"], [[1]], [np.eye(1)])
        assert CountryDataset("X", ["a/b", "..", "c\\d"], ["2020-03-01"],
                              [[1], [2], [3]], [np.eye(3)]).regions[0] == "a/b"

    def test_id_holding_any_break_of_splitlines_rejected(self):
        # load_report_rows splits rows.csv with str.splitlines(), which also
        # breaks on \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        breaks = [ch for ch in map(chr, range(0x110000)) if len(f"a{ch}b".splitlines()) > 1]
        assert len(breaks) == 10
        for ch in breaks:
            with pytest.raises(DataError, match=re.escape(f"id {'r' + ch + '1'!r} contains "
                                                          "a comma or line break")):
                CountryDataset("X", ["a", f"r{ch}1"], ["2020-03-01"], [[1], [2]],
                               [np.eye(2)])
            with pytest.raises(DataError, match="comma or line break"):
                CountryDataset(f"X{ch}", ["a"], ["2020-03-01"], [[1]], [np.eye(1)])


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

    def test_region_id_with_comma_rejected(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        old, new = ds.regions[0], "Bolzano, South Tyrol"
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest["regions"][0] = new
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with open(bdir / "cases.csv", newline="", encoding="utf-8") as fh:
            rows = [[new if cell == old else cell for cell in row]
                    for row in csv.reader(fh)]
        with open(bdir / "cases.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(DataError, match="'Bolzano, South Tyrol' contains a comma"):
            load_bundle(str(bdir))

    @pytest.mark.parametrize("country", ["../evil", "nul\x00"], ids=["dotdot", "nul"])
    def test_country_id_that_file_names_cannot_hold_rejected(self, tmp_path, country):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest["country"] = country
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(f"country id {country!r} contains "
                                                      "a path separator or NUL")):
            load_bundle(str(bdir))

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

    def test_bundle_without_regions_rejected(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        save_regionless_bundle(ds, str(tmp_path / "b"))
        with pytest.raises(DataError, match=f"^{ds.country}: no regions$"):
            load_bundle(str(tmp_path / "b"))

    def test_unsupported_version(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest["format_version"] = "1"
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="format_version '1'.*re-create the "
                           "bundle with `mobicast ingest` or `mobicast synth`"):
            load_bundle(str(bdir))

    def saved(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        return ds, bdir

    def test_missing_mobility_file(self, tmp_path):
        _, bdir = self.saved(tmp_path)
        os.remove(bdir / "mobility.npy")
        with pytest.raises(BundleError, match="mobility.npy: missing"):
            load_bundle(str(bdir))

    def test_mobility_file_holds_the_same_bits(self, tmp_path):
        ds = small_synthetic(seed=5, n=12, days=10)
        save_bundle(ds, str(tmp_path / "b"))
        stored = np.load(tmp_path / "b" / "mobility.npy", allow_pickle=False)
        assert stored.dtype.str == "<f8" and stored.shape == (10, 12, 12)
        assert stored.tobytes() == ds.mobility.tobytes()
        back = load_bundle(str(tmp_path / "b"))
        assert back.mobility.tobytes() == ds.mobility.tobytes()
        assert back.mobility.flags.c_contiguous and not back.mobility.flags.writeable

    def replace_mobility(self, tmp_path, array=None, raw=None):
        """A saved bundle whose mobility.npy holds `array`, or the bytes `raw`."""
        ds, bdir = self.saved(tmp_path)
        path = bdir / "mobility.npy"
        if raw is not None:
            path.write_bytes(raw)
        else:
            np.save(path, array, allow_pickle=True)
        return ds, bdir

    def test_truncated_mobility_file_names_file(self, tmp_path):
        ds, bdir = self.saved(tmp_path)
        raw = (bdir / "mobility.npy").read_bytes()
        for cut in (len(raw) - 8, 40):  # short data, then a short header
            (bdir / "mobility.npy").write_bytes(raw[:cut])
            with pytest.raises(BundleError, match="mobility.npy: unreadable or truncated"):
                load_bundle(str(bdir))

    def test_pickled_object_array_rejected(self, tmp_path):
        ds, _ = self.saved(tmp_path)
        objects = np.empty(ds.mobility.shape, dtype=object)
        objects[...] = 1.0
        _, bdir = self.replace_mobility(tmp_path, objects)
        with pytest.raises(BundleError, match="mobility.npy: .*allow_pickle=False"):
            load_bundle(str(bdir))

    def test_wrong_mobility_dtype_names_file(self, tmp_path):
        ds, _ = self.saved(tmp_path)
        for dtype in ("<f4", ">f8", "<i8"):
            _, bdir = self.replace_mobility(tmp_path, ds.mobility.astype(dtype))
            with pytest.raises(BundleError,
                               match=f"mobility.npy: dtype {dtype}, expected <f8"):
                load_bundle(str(bdir))

    def test_wrong_mobility_row_count(self, tmp_path):
        ds, _ = self.saved(tmp_path)
        for shape in ((8, 4, 4), (7, 3, 3), (8, 9)):
            _, bdir = self.replace_mobility(tmp_path, np.ones(shape))
            with pytest.raises(BundleError, match=re.escape(
                    f"mobility.npy: shape {shape}, expected (8, 3, 3)")):
                load_bundle(str(bdir))

    def test_empty_mobility_file(self, tmp_path):
        _, bdir = self.replace_mobility(tmp_path, raw=b"")
        with pytest.raises(BundleError, match="mobility.npy: unreadable or truncated"):
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

    def test_repeated_region_date_pair_names_line(self, tmp_path):
        ds, bdir = self.saved(tmp_path)
        path = bdir / "cases.csv"
        lines = path.read_text().splitlines()
        date, region, _ = lines[1].split(",")
        lines.insert(2, f"{date},{region},999.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match=re.escape(
                f"cases.csv:3: repeats region {region!r} on {date}")):
            load_bundle(str(bdir))

    def test_manifest_holding_a_list_rejected(self, tmp_path):
        _, bdir = self.saved(tmp_path)
        (bdir / "manifest.json").write_text("[1, 2]\n")
        with pytest.raises(BundleError,
                           match="manifest.json: expected a JSON object, got list"):
            load_bundle(str(bdir))

    def test_manifest_not_utf8_rejected(self, tmp_path):
        _, bdir = self.saved(tmp_path)
        raw = (bdir / "manifest.json").read_bytes()
        (bdir / "manifest.json").write_bytes(raw.replace(b'"C', b'"\xffC', 1))
        with pytest.raises(BundleError, match="manifest.json: unreadable or invalid JSON"):
            load_bundle(str(bdir))

    @pytest.mark.parametrize("key,value,message", [
        ("regions", 3, "manifest key 'regions' missing or not a JSON list"),
        ("n", "3", "manifest key 'n' missing or not a JSON int"),
        ("regions", [["R00"], "R01", "R02"], "regions and dates must be strings"),
        ("n", True, "manifest key 'n' missing or not a JSON int"),
        ("t_total", False, "manifest key 't_total' missing or not a JSON int"),
    ], ids=["regions-int", "n-str", "region-list", "n-bool", "t_total-bool"])
    def test_manifest_value_of_wrong_type_rejected(self, tmp_path, key, value, message):
        _, bdir = self.saved(tmp_path)
        manifest = json.loads((bdir / "manifest.json").read_text())
        manifest[key] = value
        (bdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match=message):
            load_bundle(str(bdir))

    def test_impossible_date_named(self, tmp_path):
        ds = small_synthetic(seed=9, n=3, days=8)
        bdir = tmp_path / "b"
        save_bundle(ds, str(bdir))
        # manifest and cases.csv agree on a day February does not have
        old, new = ds.dates[-1], "2020-02-30"
        for name in ("manifest.json", "cases.csv"):
            path = bdir / name
            path.write_text(path.read_text().replace(old, new))
        with pytest.raises(DataError, match="unparseable date '2020-02-30'"):
            load_bundle(str(bdir))

    @pytest.mark.parametrize("text,message", [
        (None, r"cannot read .*cases\.csv: "),
        ("date,region\n", r"cases\.csv: expected header date,region,new_cases"),
        ("date,region,new_cases\n2020-03-01,R00\n",
         r"cases\.csv:2: expected 3 columns, got 2"),
    ], ids=["missing", "header", "width"])
    def test_cases_file_faults_are_bundle_errors(self, tmp_path, text, message):
        _, bdir = self.saved(tmp_path)
        path = bdir / "cases.csv"
        if text is None:
            os.remove(path)
        else:
            path.write_text(text)
        with pytest.raises(BundleError, match=message):
            load_bundle(str(bdir))

    @pytest.mark.parametrize("tail,message", [
        (b"2020-03-01,R00\n", r"cases\.csv:\d+: expected 3 columns, got 2"),
        (b"2020-03-01,R00,\xff\n", r"cannot read .*cases\.csv: .*utf-8"),
    ], ids=["width", "decode"])
    def test_cases_fault_found_partway_is_a_bundle_error(self, tmp_path, tail, message):
        _, bdir = self.saved(tmp_path)
        path = bdir / "cases.csv"
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(BundleError, match=message):
            load_bundle(str(bdir))

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = small_synthetic(seed=11, n=3, days=6)
        save_bundle(ds, str(tmp_path / "x"))
        save_bundle(ds, str(tmp_path / "y"))
        for name in ["manifest.json", "cases.csv", "mobility.npy"]:
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
        assert sorted(os.listdir(tmp_path / "x")) == ["cases.csv", "manifest.json",
                                                      "mobility.npy"]

    def test_synth_bundle_matches_pinned_digests(self, tmp_path):
        # any change to the bundle format, or to what synth generates, moves these
        assert main(["synth", "--regions", "3", "--days", "5", "--countries", "1",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / "C0" / name).read_bytes()).hexdigest()
                   for name in sorted(os.listdir(tmp_path / "C0"))}
        assert digests == {
            "cases.csv": "c39247d19d88352372cdb840621550ddf29741294742db0024bbaea5c769d14c",
            "manifest.json": "379267f8e999facf24dc80d366175d4a885412c1d9ceb792325984ec82fe09d0",
            "mobility.npy": "8a03e4cec83103774860661b187fdf69b1612ea68891b2683a50fba59ef08905",
        }


class TestWriteFile:
    def test_writes_text_and_bytes_through_a_temp_file(self, tmp_path):
        path = tmp_path / "new" / "dir" / "out.txt"
        write_file(str(path), "caf\u00e9\r\n")
        assert path.read_bytes() == "caf\u00e9\r\n".encode("utf-8")
        write_file(str(path), b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert os.listdir(path.parent) == ["out.txt"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        os.mkdir(str(path) + ".tmp")   # blocks the temp file, even for root
        with pytest.raises(WriteError, match=f"cannot write {re.escape(str(path))}: ") as exc:
            write_file(str(path), "new")
        assert not isinstance(exc.value, DataError)
        assert path.read_text() == "old"

    def test_writes_an_iterable_of_chunks(self, tmp_path):
        path = tmp_path / "out.txt"
        write_file(str(path), (f"{k}\u00e9\n" for k in range(3)))
        assert path.read_bytes() == "0\u00e9\n1\u00e9\n2\u00e9\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_chunk_that_raises_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"old rows\n")

        def chunks():
            yield "header\n"
            yield "row 1\n"
            raise RuntimeError("cell failed halfway")

        with pytest.raises(RuntimeError, match="cell failed halfway"):
            write_file(str(path), chunks())
        assert path.read_bytes() == b"old rows\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()   # a non-empty directory cannot be replaced by a file
        (path / "kept").write_text("x")
        with pytest.raises(WriteError, match=f"cannot write {re.escape(str(path))}: "):
            write_file(str(path), "new")
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(path) == ["kept"]

    def test_make_dir_over_a_file_fails_cleanly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file")
        make_dir(str(tmp_path / "fresh" / "nested"))
        make_dir(str(tmp_path / "fresh"))   # an existing directory is kept
        assert os.path.isdir(tmp_path / "fresh" / "nested")
        for path in (blocker, blocker / "below"):
            with pytest.raises(WriteError, match=f"cannot create directory "
                               f"{re.escape(str(path))}: "):
                make_dir(str(path))


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobicast")


def writing_open_mode(node) -> str | None:
    """The mode of `node` if it is a call of open with a mode that writes,
    appends or creates (or a mode that is not a literal), else None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return None
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    if mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
        return None
    return ast.unparse(mode)


def disk_writes(source: str) -> list:
    """Calls in `source` that write to disk: os.replace, os.rename,
    os.makedirs, os.mkdir, np.save, np.savez, and open with a mode that
    writes, appends or creates (or a mode that is not a literal)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in {
                    ("os", "replace"), ("os", "rename"), ("os", "makedirs"),
                    ("os", "mkdir"), ("np", "save"), ("np", "savez")}):
            found.append(f"{func.value.id}.{func.attr}")
        elif (mode := writing_open_mode(node)) is not None:
            found.append(f"open({mode})")
    return found


def writing_opens(source: str) -> list:
    """The qualified name of the def or class around each open in `source`
    that writes (see writing_open_mode), "<module>" outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if writing_open_mode(child) is not None:
                found.append(scope or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


class TestOneWriter:
    """dataio.write_file and make_dir are the package's only way to disk, so
    every output is atomic and every failure to write is a WriteError."""

    def test_writes_are_recognised(self):
        assert disk_writes("open(p, 'w')") == ["open('w')"]
        assert disk_writes("open(p, mode='ab')") == ["open('ab')"]
        assert disk_writes("open(p, 'r+b')") == ["open('r+b')"]
        assert disk_writes("open(p, m)") == ["open(m)"]
        assert disk_writes("os.replace(a, b); np.save(f, x)") == ["os.replace",
                                                                  "np.save"]
        assert disk_writes("os.makedirs(d, exist_ok=True)") == ["os.makedirs"]
        assert disk_writes("open(p); open(p, 'rb'); open(p, encoding='utf-8');"
                           "os.path.join(a, b); np.load(f)") == []

    def test_writing_opens_are_placed(self):
        source = ("open(p, 'w')\n"
                  "def f(p):\n    with open(p, 'rb') as fh, open(p + 't', 'xb'):\n"
                  "        def g():\n            return open(p, mode=m)\n"
                  "class C:\n    def h(self):\n        open(p, 'a')\n")
        assert writing_opens(source) == ["<module>", "f", "f.g", "C.h"]

    def test_only_write_file_opens_for_writing(self):
        # a streamed writer that opened its own file would bypass the
        # write-to-.tmp-then-rename guarantee
        found = {}
        for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
            scopes = writing_opens(read_file(path))
            if scopes:
                found[os.path.basename(path)[:-3]] = scopes
        assert found == {"dataio": ["write_file"]}

    def test_only_dataio_writes(self):
        paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
        assert len(paths) > 10
        offenders = {}
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                found = disk_writes(fh.read())
            module = os.path.basename(path)[:-3]
            if found and module != "dataio":
                offenders[module] = found
        assert offenders == {}


def disk_reads(source: str) -> list:
    """Calls in `source` that open or load a file: open (in any mode),
    io.open, os.open, np.load, np.fromfile and np.lib.format.read_array."""
    readers = {"open", "io.open", "os.open", "np.load", "np.fromfile",
               "np.lib.format.read_array"}
    return [ast.unparse(node.func) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in readers]


class TestOneReader:
    """Only dataio opens files: read_file reads whole files, _csv_rows streams
    CSVs and load_bundle streams mobility.npy, and every failure to read or
    decode is one "cannot read <path>: ..." error."""

    def test_reads_are_recognised(self):
        assert disk_reads("open(p); open(p, 'rb'); np.load(f)") == [
            "open", "open", "np.load"]
        assert disk_reads("np.fromfile(f); np.lib.format.read_array(fh);"
                          "io.open(p); os.open(p, 0)") == [
            "np.fromfile", "np.lib.format.read_array", "io.open", "os.open"]
        assert disk_reads("read_file(p); json.loads(s); fh.read(); np.save(f, x)") == []

    def test_lines_split_as_splitlines_of_the_whole_text(self, tmp_path):
        # \r\n pairs straddle the reader's 8 KiB chunks at some line length
        text = ("a\r\nb\rc\n\nd\x1ce\x1d\x1e\x85f\u2028g\u2029\v\fh\x1fi\r"
                + "".join("x" * k + "\r\n\r" for k in range(8180, 8200)) + "\u00e9")
        path = tmp_path / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        assert list(read_lines(str(path))) == text.splitlines()
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "
                           ".*utf-8.*can't decode"):
            list(read_lines(str(path)))
        missing = str(tmp_path / "absent")
        with pytest.raises(DataError, match=f"^cannot read {re.escape(missing)}: "):
            list(read_lines(missing))

    def test_only_dataio_reads(self):
        paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
        assert len(paths) > 10
        offenders = {}
        for path in paths:
            found = disk_reads(read_file(path))
            module = os.path.basename(path)[:-3]
            if found and module != "dataio":
                offenders[module] = found
        assert offenders == {}

    def test_text_bytes_and_faults(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("é\r\nx".encode("utf-8"))
        assert read_file(str(path)) == "é\r\nx"
        assert read_file(str(path), binary=True) == "é\r\nx".encode("utf-8")
        path.write_bytes(b"a\xffb")
        assert read_file(str(path), binary=True) == b"a\xffb"
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "
                           ".*utf-8.*can't decode"):
            read_file(str(path))
        missing = str(tmp_path / "absent")
        for binary in (False, True):
            with pytest.raises(CheckpointError,
                               match=f"^cannot read {re.escape(missing)}: "):
                read_file(missing, binary=binary, error=CheckpointError)
