"""Tests for repro.sim.random."""

import math
import random
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).stream("dev/exec")
        b = RandomStreams(42).stream("dev/exec")
        assert a.random() == b.random()

    def test_different_keys_independent(self):
        rs = RandomStreams(42)
        a = rs.stream("a").random(100)
        b = rs.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("k").random()
        b = RandomStreams(2).stream("k").random()
        assert a != b

    def test_stream_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_creation_order_irrelevant(self):
        rs1 = RandomStreams(7)
        rs1.stream("first")
        v1 = rs1.stream("second").random()
        rs2 = RandomStreams(7)
        v2 = rs2.stream("second").random()
        assert v1 == v2

    def test_invalid_seed(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(1.5)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            RandomStreams(True)  # type: ignore[arg-type]

    @pytest.mark.parametrize("seed", [-1, np.int64(-7), -(2**70)])
    def test_negative_seed_rejected_at_construction(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            RandomStreams(seed)

    def test_invalid_key(self):
        rs = RandomStreams(0)
        with pytest.raises(ConfigurationError):
            rs.stream("")
        with pytest.raises(ConfigurationError):
            rs.stream(3)  # type: ignore[arg-type]


class TestLognormalFactor:
    def test_zero_sigma_is_exact_one(self):
        rs = RandomStreams(0)
        assert rs.lognormal_factor("k", 0.0) == 1.0

    def test_zero_sigma_consumes_no_randomness(self):
        rs = RandomStreams(0)
        rs.lognormal_factor("k", 0.0)
        after = rs.stream("k").random()
        fresh = RandomStreams(0).stream("k").random()
        assert after == fresh

    def test_positive(self):
        rs = RandomStreams(0)
        for i in range(50):
            assert rs.lognormal_factor(f"k{i}", 0.5) > 0.0

    def test_unit_median(self):
        rs = RandomStreams(3)
        draws = [rs.lognormal_factor("same-key", 0.1) for _ in range(2000)]
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomStreams(0).lognormal_factor("k", -0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        rs = RandomStreams(0)
        with pytest.raises(ConfigurationError, match="finite"):
            rs.lognormal_factor("k", sigma)
        assert rs.lognormal_factor("k", 0.1) == ReferenceStreams(0).lognormal_factor(
            "k", 0.1
        )

    def test_invalid_key_rejected(self):
        rs = RandomStreams(0)
        for key in ("", 3):
            with pytest.raises(ConfigurationError):
                rs.lognormal_factor(key, 0.1)  # type: ignore[arg-type]


class ReferenceStreams:
    """One generator per key, built and cached on first use."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cache: dict[str, np.random.Generator] = {}

    def stream(self, key: str) -> np.random.Generator:
        if key not in self.cache:
            crc = zlib.crc32(key.encode("utf-8"))
            self.cache[key] = np.random.default_rng(
                np.random.SeedSequence([self.seed, crc])
            )
        return self.cache[key]

    def lognormal_factor(self, key: str, sigma: float) -> float:
        return float(np.exp(self.stream(key).normal(0.0, sigma)))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, RandomStreams(90417).fork("rep1").seed]
KEYS = [
    "A.gpu0/exec/17",  # batch: device, kind, task id
    "B.cpu/transfer/4093",
    "serve/A.gpu0/exec/12/256",  # serve: device, job, served units
    "matmul/A.cpu/1024",  # fig1: app, device, block size
]


class TestOneShotDraws:
    """A key's first draw equals its own generator's, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sigma", [0.005, 1.0, 3.0])
    def test_first_draw_equals_a_fresh_generator(self, seed, sigma):
        rs = RandomStreams(seed)
        for key in KEYS:
            fresh = ReferenceStreams(seed).lognormal_factor(key, sigma)
            assert rs.lognormal_factor(key, sigma) == fresh

    @pytest.mark.parametrize("seed", [0, 2**32, 12345])
    def test_interleavings_equal_one_generator_per_key(self, seed):
        rng = random.Random(seed)
        keys = [f"A.gpu0/exec/{i}" for i in range(6)]
        ours, ref = RandomStreams(seed), ReferenceStreams(seed)
        for _ in range(400):
            key = rng.choice(keys)
            if rng.random() < 0.7:
                sigma = rng.choice([0.005, 0.1, 2.0])
                got = ours.lognormal_factor(key, sigma)
                want = ref.lognormal_factor(key, sigma)
            else:
                got, want = ours.stream(key).random(), ref.stream(key).random()
            assert got == want

    def test_distinct_keys_keep_no_generators(self):
        rs = RandomStreams(1)
        for i in range(1000):
            rs.lognormal_factor(f"A.gpu0/exec/{i}", 0.005)
        assert rs._cache == {}


class TestFork:
    def test_fork_deterministic(self):
        a = RandomStreams(5).fork("rep1").stream("k").random()
        b = RandomStreams(5).fork("rep1").stream("k").random()
        assert a == b

    def test_fork_differs_from_parent(self):
        parent = RandomStreams(5)
        child = parent.fork("rep1")
        assert parent.stream("k").random() != child.stream("k").random()

    def test_forks_differ_by_suffix(self):
        parent = RandomStreams(5)
        a = parent.fork("rep1").stream("k").random()
        b = parent.fork("rep2").stream("k").random()
        assert a != b
