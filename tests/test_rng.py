"""Determinism and distribution checks for the SplitMix64 stream."""

import hashlib
import math

import numpy as np
import pytest

from mobicast.errors import ContractError
from mobicast.rng import Rng, derive_seed, sha256

MASK = (1 << 64) - 1


def splitmix_reference(seed, n, start=0):
    """Scalar big-int reimplementation used as the independent oracle."""
    out = []
    for k in range(n):
        z = (seed + (start + k + 1) * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


class TestRawStream:
    def test_known_vector_seed_zero(self):
        rng = Rng(0)
        got = [int(v) for v in rng._raw(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_matches_scalar_oracle(self):
        for seed in [0, 1, 42, 2**63 - 1, 2**64 - 1, 1234567891011]:
            rng = Rng(seed)
            got = [int(v) for v in rng._raw(64)]
            assert got == splitmix_reference(seed, 64), f"seed {seed}"

    def test_counter_advances_across_calls(self):
        rng = Rng(7)
        a = [int(v) for v in rng._raw(5)]
        b = [int(v) for v in rng._raw(5)]
        assert a + b == splitmix_reference(7, 10)

    def test_sizes_around_the_cached_ramp(self):
        # draws shorter, longer and far longer than the cached counter ramp,
        # in an order that grows it, reuses it and bypasses it
        rng = Rng(11)
        start = 0
        for n in [3, 300, 5, (1 << 17) + 9, 300, 2]:
            got = rng._raw(n)
            for k in (0, n // 2, n - 1):
                assert int(got[k]) == splitmix_reference(11, 1, start + k)[0], (n, k)
            start += n
        assert rng.random() == Rng(11).random(start + 1)[-1]

    def test_same_seed_same_stream(self):
        a = Rng(99).random(1000)
        b = Rng(99).random(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).random(100)
        b = Rng(2).random(100)
        assert not np.array_equal(a, b)


class TestDistributions:
    def test_random_bounds_and_mean(self):
        vals = Rng(3).random(20000)
        assert vals.min() >= 0.0 and vals.max() < 1.0
        assert abs(vals.mean() - 0.5) < 0.01

    def test_random_scalar_and_shapes(self):
        rng = Rng(5)
        assert isinstance(rng.random(), float)
        assert rng.random(4).shape == (4,)
        assert rng.random((2, 3)).shape == (2, 3)

    def test_uniform_range(self):
        vals = Rng(11).uniform(-2.0, 5.0, 5000)
        assert vals.min() >= -2.0 and vals.max() < 5.0
        assert abs(vals.mean() - 1.5) < 0.1

    def test_normal_moments(self):
        vals = Rng(13).normal(40000)
        assert abs(vals.mean()) < 0.02
        assert abs(vals.std() - 1.0) < 0.02

    def test_poisson_small_mean(self):
        rng = Rng(17)
        draws = rng.poisson(np.full(20000, 4.0))
        assert draws.min() >= 0
        assert abs(draws.mean() - 4.0) < 0.1
        assert abs(draws.var() - 4.0) < 0.3

    def test_poisson_large_mean_uses_normal_branch(self):
        draws = Rng(19).poisson(np.full(5000, 400.0))
        assert abs(draws.mean() - 400.0) < 2.0
        assert abs(draws.std() - 20.0) < 1.0

    def test_poisson_zero_and_scalar(self):
        rng = Rng(23)
        assert rng.poisson(0.0) == 0
        assert isinstance(rng.poisson(3.0), int)

    def test_poisson_rejects_negative(self):
        with pytest.raises(ContractError):
            Rng(0).poisson(-1.0)


class TestRandomAtLeast:
    """random_at_least(size, p) against random(size) >= p, bit for bit."""

    RATES = [0.5, 0.3, 1.0 / 3.0, 1e-300, 1.0 - 2.0 ** -53, 0.0]

    @pytest.mark.parametrize("p", RATES)
    def test_equals_float_comparison(self, p):
        for size in [(40, 25), 1000, (3, 1)]:
            got = Rng(12).random_at_least(size, p)
            want = Rng(12).random(size) >= p
            assert got.dtype == np.bool_ and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", RATES)
    def test_raw_draws_at_the_bound(self, p):
        # raw values straddling the bound, where an off-by-one would show
        bound = math.ceil(p * 2.0 ** 53) << 11
        edges = [0, 1, 2047, 2048, 2 ** 64 - 1, 2 ** 64 - 2048, 2 ** 64 - 2049]
        edges += [b for b in (bound - 2049, bound - 2048, bound - 1, bound,
                              bound + 1, bound + 2047, bound + 2048)
                  if 0 <= b < 2 ** 64]
        raw = np.array(edges, dtype=np.uint64)

        class FixedRng(Rng):
            __slots__ = ()

            def _raw(self, n):
                assert n == raw.size
                return raw.copy()

        got = FixedRng(0).random_at_least(raw.size, p)
        np.testing.assert_array_equal(got, FixedRng(0).random(raw.size) >= p)

    def test_advances_counter_like_random(self):
        a, b = Rng(5), Rng(5)
        a.random_at_least((7, 9), 0.5)
        b.random((7, 9))
        assert a.random() == b.random()
        np.testing.assert_array_equal(a.random(16), b.random(16))

    @pytest.mark.parametrize("p", [1.0, -0.1, float("nan")])
    def test_rejects_rate_outside_unit_interval(self, p):
        with pytest.raises(ContractError):
            Rng(0).random_at_least(4, p)


class TestPermutation:
    def test_is_permutation(self):
        for seed in range(20):
            perm = Rng(seed).permutation(50)
            assert sorted(perm.tolist()) == list(range(50))

    def test_deterministic(self):
        assert np.array_equal(Rng(31).permutation(64), Rng(31).permutation(64))

    def test_small_cases(self):
        assert Rng(0).permutation(0).tolist() == []
        assert Rng(0).permutation(1).tolist() == [0]

    def test_actually_shuffles(self):
        hits = sum(np.array_equal(Rng(s).permutation(20), np.arange(20))
                   for s in range(50))
        assert hits == 0

    def test_rejects_negative_length(self):
        with pytest.raises(ContractError):
            Rng(0).permutation(-1)


class TestSeedDerivation:
    def test_stable_value(self):
        # frozen: must never change across releases, checkpoints depend on it
        assert derive_seed(0) == derive_seed(0)
        assert derive_seed(1, "IT", 14, 3) == derive_seed(1, "IT", 14, 3)

    def test_sensitive_to_parts_and_order(self):
        base = derive_seed(5, "a", 1)
        assert derive_seed(5, "a", 2) != base
        assert derive_seed(5, 1, "a") != base
        assert derive_seed(6, "a", 1) != base

    def test_int_and_string_parts_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")

    def test_rejects_other_types(self):
        with pytest.raises(ContractError):
            derive_seed(0, 1.5)

    @pytest.mark.parametrize("args,seed", [
        ((0,), 4066689987807800415),
        ((7, "AA", 14, 1), 9220286777708782061),
        ((2**63 + 5, "meta", "BB"), 8209737652733523878),
        ((3, np.int64(-4), "\u00e9"), 6693587442911053649),
        ((123456789, np.int64(2**40), "MPNN_TL", 99), 7326619289827552361),
    ])
    def test_pinned_values(self, args, seed):
        # computed through hashlib.sha256; seeds name every cell's stream and
        # checkpoint, so whichever sha256 implementation is loaded gives these
        assert derive_seed(*args) == seed

    def test_spawn_streams_independent(self):
        rng = Rng(77)
        a = rng.spawn("left").random(32)
        b = rng.spawn("right").random(32)
        assert not np.array_equal(a, b)
        # spawn does not consume from the parent stream
        assert np.array_equal(rng.random(8), Rng(77).random(8))


class TestSha256:
    @pytest.mark.parametrize("data,digest", [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ])
    def test_fips_180_2_known_answers(self, data, digest):
        assert sha256(data).hexdigest() == digest
        h = sha256()
        for byte in data:
            h.update(bytes([byte]))
        assert h.hexdigest() == digest


class TestPinnedOutputs:
    """Fixed-seed draws pinned by sha256, so a rewrite of the mixing code
    must stay bit-identical (the hashes predate the in-place mixer)."""

    @staticmethod
    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    def test_draws_bit_identical(self):
        rng = Rng(20201)
        assert self.digest(rng.random((320, 64))) == (
            "e81e91f9ea8c516791dfea4fbb4a4b7df8669c7a179edb6d5d6d11b0827880f6")
        assert self.digest(rng.uniform(-2.0, 3.0, (7, 11))) == (
            "37b70bc8aeeb0f5d42c85f0cfb93118343cdc21efecd563c01d41cab22653048")
        assert self.digest(rng.normal(1001)) == (
            "567ef855ff7fa4d97c28831a3bdbd02911161e5d8e8717378e685c1b9ae95756")
        assert self.digest(rng.permutation(500)) == (
            "0e226a5dd667b5888bc9ac36993f155cad11584f0995ba2606425856d21e0adb")
        assert rng.random() == 0.1936817518391276
        assert rng.normal() == 0.32781624050277625
