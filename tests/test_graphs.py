"""Normalization, feature windows, and sample assembly."""

import re

import numpy as np
import pytest

from conftest import make_ramp_dataset, scored, skips
from mobicast import graphs
from mobicast import tape as tp
from mobicast.errors import ContractError, DataError, ShapeError
from mobicast.evaluation import EvalConfig, ProtocolGrid, rolling_evaluate
from mobicast.graphs import (assemble_samples, normalize_incoming,
                             normalized_graphs)
from mobicast.meta import MetaConfig
from mobicast.rng import Rng
from mobicast.train import TrainConfig


class TestNormalizeIncoming:
    def test_row_normalization(self):
        out = normalize_incoming([[2.0, 2.0], [0.0, 4.0]])
        np.testing.assert_array_equal(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_zero_matrix_stays_zero(self):
        np.testing.assert_array_equal(normalize_incoming(np.zeros((3, 3))),
                                      np.zeros((3, 3)))

    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(normalize_incoming(np.eye(4)), np.eye(4))

    def test_rows_sum_to_one_or_zero(self):
        for seed in range(25):
            m = Rng(seed).uniform(0.0, 9.0, (6, 6))
            m[seed % 6, :] = 0.0  # one silent region
            sums = normalize_incoming(m).sum(axis=1)
            for s in sums:
                assert abs(s - 1.0) < 1e-9 or s == 0.0

    def test_idempotent(self):
        for seed in range(10):
            a = normalize_incoming(Rng(seed).uniform(0.0, 5.0, (5, 5)))
            np.testing.assert_allclose(normalize_incoming(a), a, rtol=0, atol=1e-15)

    def test_scale_invariance_exact_for_powers_of_two(self):
        m = Rng(3).uniform(0.0, 7.0, (5, 5))
        base = normalize_incoming(m)
        for lam in (2.0, 0.5, 1024.0, 2.0 ** -20):
            np.testing.assert_array_equal(normalize_incoming(lam * m), base)

    def test_scale_invariance_general(self):
        m = Rng(4).uniform(0.0, 7.0, (5, 5))
        base = normalize_incoming(m)
        for lam in (3.0, 0.1, 1e6, 7.3e-4):
            np.testing.assert_allclose(normalize_incoming(lam * m), base,
                                       rtol=0, atol=1e-12)

    def test_rejects_negative_and_nonsquare(self):
        with pytest.raises(ContractError):
            normalize_incoming([[1.0, -0.1], [0.0, 1.0]])
        with pytest.raises(ContractError):
            normalize_incoming([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            normalize_incoming(np.ones((2, 3)))

    def test_stack_normalizes_like_its_days(self):
        stack = Rng(5).uniform(0.0, 9.0, (6, 5, 5))
        stack[1, 3, :] = 0.0   # one silent region on one day
        stack[4] = 0.0         # one day without movement
        out = normalize_incoming(stack)
        assert out.shape == stack.shape and out.dtype == np.float64
        for day, m in zip(out, stack):
            assert day.tobytes() == normalize_incoming(m).tobytes()
        assert not out[4].any() and not out[1, 3].any()

    @pytest.mark.parametrize("value", [-0.1, np.nan])
    def test_stack_rejects_what_a_day_rejects(self, value):
        stack = np.ones((3, 2, 2))
        stack[2, 0, 1] = value
        with pytest.raises(ContractError) as one:
            normalize_incoming(stack[2])
        with pytest.raises(ContractError, match=re.escape(str(one.value))):
            normalize_incoming(stack)

    def test_nonsquare_stack_rejected_like_a_day(self):
        with pytest.raises(ShapeError, match=re.escape("must be square, got (2, 3)")):
            normalize_incoming(np.ones((2, 3)))
        with pytest.raises(ShapeError, match=re.escape("must be square, got (4, 2, 3)")):
            normalize_incoming(np.ones((4, 2, 3)))
        with pytest.raises(ShapeError, match="must be square"):
            normalize_incoming(np.ones((2, 2, 2, 2)))


class TestNodeFeatures:
    """Feature windows, as samples read them through CountryDataset.case_window."""

    def test_window_slicing(self):
        ds = make_ramp_dataset(n=1, days=4)  # cases row = [1, 2, 3, 4]
        x = ds.case_window(4, 2)
        np.testing.assert_array_equal(x, [[3.0, 4.0]])

    def test_single_day_window(self):
        ds = make_ramp_dataset(n=2, days=5)
        x = ds.case_window(3, 1)
        np.testing.assert_array_equal(x[:, 0], ds.cases_on(3))

    def test_window_error_at_start(self):
        ds = make_ramp_dataset(n=2, days=5)
        with pytest.raises(DataError):
            ds.case_window(1, 2)

    def test_columns_oldest_to_newest(self):
        ds = make_ramp_dataset(n=3, days=10)
        x = ds.case_window(9, 4)
        for col, day in enumerate(range(6, 10)):
            np.testing.assert_array_equal(x[:, col], ds.cases_on(day))


def aggregate(a_norm, x):
    """One aggregation step A_norm @ X as the MPNN trunk computes it."""
    tape = tp.Tape()
    return tp.block_diag_matmul([np.asarray(a_norm, dtype=np.float64)],
                                tape.constant(np.asarray(x, dtype=np.float64))).value


class TestLatentMessage:
    def test_identity_passthrough(self):
        x = Rng(0).uniform(0.0, 5.0, (4, 3))
        np.testing.assert_array_equal(aggregate(np.eye(4), x), x)

    def test_hand_product(self):
        z = aggregate([[0.5, 0.5], [0.0, 1.0]], [[2.0], [4.0]])
        np.testing.assert_array_equal(z, [[3.0], [4.0]])

    def test_zero_features(self):
        np.testing.assert_array_equal(aggregate(np.eye(3), np.zeros((3, 2))),
                                      np.zeros((3, 2)))

    def test_convex_combination_bounds(self):
        for seed in range(10):
            rng = Rng(seed)
            a = normalize_incoming(rng.uniform(0.1, 5.0, (6, 6)))  # no zero rows
            x = rng.uniform(0.0, 10.0, (6, 4))
            z = aggregate(a, x)
            lo = x.min(axis=0) - 1e-12
            hi = x.max(axis=0) + 1e-12
            assert np.all(z >= lo) and np.all(z <= hi)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate(np.eye(3), np.zeros((4, 2)))


class TestAssembleSamples:
    def test_training_universe_t14(self):
        ds = make_ramp_dataset(n=3, days=30)
        samples = assemble_samples(ds, d=7, j=1, t_end=14)
        assert len(samples) == 7
        assert [s.anchor for s in samples] == list(range(7, 14))
        assert [s.target_day for s in samples] == list(range(8, 15))
        for s in samples:
            np.testing.assert_array_equal(s.target, ds.cases_on(s.target_day))
            np.testing.assert_array_equal(s.graphs[-1][1], ds.case_window(s.anchor, 7))

    def test_no_room_gives_empty_list(self):
        ds = make_ramp_dataset(n=2, days=30)
        assert assemble_samples(ds, d=7, j=8, t_end=14) == []

    def test_sequence_packs_trailing_days(self):
        ds = make_ramp_dataset(n=2, days=30)
        samples = assemble_samples(ds, d=7, j=1, t_end=14, seq_len=7)
        assert [s.anchor for s in samples] == [13]  # earliest anchor is d+s-1
        sample = samples[0]
        assert len(sample.graphs) == 7
        for k, day in enumerate(range(7, 14)):
            np.testing.assert_array_equal(sample.graphs[k][1], ds.case_window(day, 7))

    def test_include_test_appends_anchor_t(self):
        ds = make_ramp_dataset(n=2, days=30)
        samples = assemble_samples(ds, d=7, j=2, t_end=14, include_test=True)
        assert samples[-1].anchor == 14
        np.testing.assert_array_equal(samples[-1].target, ds.cases_on(16))

    def test_test_target_beyond_data_rejected(self):
        ds = make_ramp_dataset(n=2, days=15)
        with pytest.raises(DataError, match="day 18 outside 1..15"):
            assemble_samples(ds, d=7, j=3, t_end=15, include_test=True)

    def test_targets_never_exceed_t_end(self):
        ds = make_ramp_dataset(n=2, days=40)
        rng = Rng(1)
        for _ in range(100):
            t_end = 14 + int(rng.random() * 20)
            j = 1 + int(rng.random() * 14)
            for s in assemble_samples(ds, d=7, j=j, t_end=t_end):
                assert s.target_day <= t_end

    def test_graphs_are_normalized(self):
        ds = make_ramp_dataset(n=4, days=20)
        sample = assemble_samples(ds, d=7, j=1, t_end=14)[0]
        sums = sample.graphs[-1][0].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_contract_errors(self):
        ds = make_ramp_dataset(n=2, days=20)
        with pytest.raises(ContractError):
            assemble_samples(ds, d=7, j=0, t_end=14)
        with pytest.raises(ContractError):
            assemble_samples(ds, d=7, j=1, t_end=25)
        with pytest.raises(ContractError):
            assemble_samples(ds, d=7, j=1, t_end=14, seq_len=0)


class TestGraphCache:
    def test_every_sample_graph_is_its_own_day(self):
        ds = make_ramp_dataset(n=3, days=30)
        for s in (1, 4):
            for j in (1, 3):
                samples = assemble_samples(ds, d=5, j=j, t_end=25, seq_len=s,
                                           include_test=True)
                assert samples
                for smp in samples:
                    assert len(smp.graphs) == s
                    days = range(smp.anchor - s + 1, smp.anchor + 1)
                    for day, (a_norm, x) in zip(days, smp.graphs):
                        expected = normalize_incoming(ds.mobility_on(day))
                        assert a_norm.dtype == expected.dtype
                        assert a_norm.tobytes() == expected.tobytes()
                        np.testing.assert_array_equal(x, ds.case_window(day, 5))

    def test_cache_is_read_only_and_shared(self):
        ds = make_ramp_dataset(n=3, days=20)
        cache = normalized_graphs(ds)
        assert len(cache) == ds.t_total
        assert normalized_graphs(ds) is cache
        assert all(not g.flags.writeable for g in cache)
        with pytest.raises(ValueError):
            cache[0][0, 0] = 1.0
        one = assemble_samples(ds, d=3, j=1, t_end=18)
        two = assemble_samples(ds, d=3, j=2, t_end=18)
        assert one[0].anchor == two[0].anchor == 3
        assert one[0].graphs[0][0] is two[0].graphs[0][0] is cache[2]

    def test_rolling_evaluate_normalizes_each_day_at_most_once(self, monkeypatch, tmp_path):
        inputs = []
        real = graphs.normalize_incoming

        def counting(m):
            inputs.append(m.ctypes.data)  # one call per country, on dataset.mobility
            return real(m)

        monkeypatch.setattr(graphs, "normalize_incoming", counting)
        datasets = [make_ramp_dataset(n=2, days=18, country="AA"),
                    make_ramp_dataset(n=3, days=18, country="BB", seed=1)]
        cfg = EvalConfig(train=TrainConfig(max_epochs=1, hidden=2, k_layers=1,
                                           d=3, dropout=0.0, seq_len=4),
                         meta=MetaConfig(dt=1),
                         models=("MPNN", "MPNN_LSTM", "MPNN_TL", "TL_BASE"),
                         grid=ProtocolGrid(t_end=15, dt=2))
        report = rolling_evaluate(datasets, cfg, str(tmp_path))
        assert scored(report) and not skips(report)
        assert inputs
        assert len(inputs) == len(set(inputs))  # each mobility matrix once
        assert len(inputs) <= sum(ds.t_total for ds in datasets)
