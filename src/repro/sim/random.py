"""Reproducible per-entity random streams.

Every noisy quantity in the simulator (execution-time jitter, transfer
jitter, fault jitter, arrivals) draws from a stream keyed by a string
name: ``default_rng(SeedSequence([seed, crc32(key)]))``.  So:

* the same (seed, key) pair always yields the same stream, regardless of
  the order in which other streams were created, and
* adding a new consumer of randomness does not shift the draws seen by
  existing consumers — experiments stay comparable across code changes.

Measurement noise keys its streams by block (device, kind and task id
in batch; device, job and served units in serve), so nearly every
:meth:`RandomStreams.lognormal_factor` call is the first and only draw
of its key's stream.  Such a draw needs no generator of its own: the
call derives the PCG64 state that stream would start from (the seed
sequence's entropy pool, its output hash, PCG64's seeding step), loads
it into one generator the :class:`RandomStreams` owns, and draws from
that — bit for bit the value the key's own generator would give, at one
seeding instead of three objects.  A key drawn this way is remembered;
a later draw or :meth:`~RandomStreams.stream` call on it builds the
key's generator and steps it past that first normal, so every sequence
of calls returns the same values as a generator per key would.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RandomStreams"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


# SeedSequence.generate_state's output hash: word i is xored with a
# running constant (INIT_B = 0x8B51F9DD), which then advances (times
# MULT_B = 0x58F38DED), and multiplied by the advanced one.
_OUTPUT_HASH = tuple(
    itertools.pairwise(
        itertools.accumulate(
            range(8), lambda h, _: h * 0x58F38DED & _MASK32, initial=0x8B51F9DD
        )
    )
)


def _check_key(key: str) -> None:
    if not isinstance(key, str) or not key:
        raise ConfigurationError(f"stream key must be a non-empty string: {key!r}")


def _pcg64_start(pool: list[int]) -> tuple[int, int]:
    """The ``(state, inc)`` a ``PCG64`` seeded from this entropy pool holds.

    ``PCG64(seed_seq)`` takes 8 words of ``generate_state`` (the pool,
    cycled, through the output hash), packs them into the 128-bit
    initial state and stream, and runs PCG's seeding step.
    """
    words = []
    for word, (xor, mult) in zip(pool * 2, _OUTPUT_HASH):
        v = ((word ^ xor) * mult) & _MASK32
        words.append(v ^ (v >> 16))
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    initstate = (w0 | w1 << 32) << 64 | w2 | w3 << 32
    initseq = (w4 | w5 << 32) << 64 | w6 | w7 << 32
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


class RandomStreams:
    """A factory of named, deterministic ``numpy`` generators.

    One instance is used from one thread (each run owns one): the
    one-shot draws share a generator.

    Parameters
    ----------
    seed:
        Root seed, a non-negative integer.  Two :class:`RandomStreams`
        with the same seed produce identical streams for identical keys.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ConfigurationError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}
        # keys whose first normal a one-shot draw took
        self._drawn: set[str] = set()
        # SeedSequence([seed, crc])'s entropy: the seed's little-endian
        # 32-bit words, then the key's crc (set per draw)
        shifts = range(0, max(self.seed.bit_length(), 1), 32)
        self._entropy = np.array(
            [*(self.seed >> s & _MASK32 for s in shifts), 0], dtype=np.uint32
        )
        # the one-shot generator's state, rewritten in place per draw
        self._start = {"state": 0, "inc": 0}
        self._bit_state = {
            "bit_generator": "PCG64",
            "state": self._start,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._oneshot = np.random.Generator(np.random.PCG64(0))

    @staticmethod
    def _key_to_int(key: str) -> int:
        # crc32 is stable across Python processes (unlike hash()), cheap,
        # and collisions are harmless here because the root seed is also
        # part of the entropy.
        return zlib.crc32(key.encode("utf-8"))

    def stream(self, key: str) -> np.random.Generator:
        """Return the generator for ``key``, creating it on first use."""
        _check_key(key)
        gen = self._cache.get(key)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, self._key_to_int(key)])
            gen = np.random.default_rng(ss)
            if key in self._drawn:
                # a one-shot draw already took this stream's first normal
                self._drawn.discard(key)
                gen.standard_normal()
            self._cache[key] = gen
        return gen

    def lognormal_factor(self, key: str, sigma: float) -> float:
        """Draw one multiplicative noise factor with unit median.

        ``sigma`` is the log-space standard deviation, finite and
        ``>= 0``; ``sigma == 0`` returns exactly 1.0 without consuming
        randomness, so noise-free simulations are bit-stable.
        """
        if not 0.0 <= sigma < math.inf:
            raise ConfigurationError(f"sigma must be finite and >= 0, got {sigma}")
        if sigma == 0.0:
            return 1.0
        _check_key(key)
        gen = self._cache.get(key)
        if gen is None:
            if key in self._drawn:
                gen = self.stream(key)
            else:
                gen = self._first_draw_generator(key)
        return float(np.exp(gen.normal(0.0, sigma)))

    def _first_draw_generator(self, key: str) -> np.random.Generator:
        """The shared generator, set to where ``key``'s stream starts."""
        entropy = self._entropy
        entropy[-1] = self._key_to_int(key)
        pool = np.random.SeedSequence(entropy).pool.tolist()
        self._start["state"], self._start["inc"] = _pcg64_start(pool)
        gen = self._oneshot
        gen.bit_generator.state = self._bit_state
        self._drawn.add(key)
        return gen

    def fork(self, suffix: str) -> "RandomStreams":
        """Return an independent stream family for a sub-component.

        The child derives its root seed from the parent's seed and the
        suffix, so replication i of an experiment can fork ``f"rep{i}"``.
        """
        return RandomStreams(
            (self.seed * 1_000_003 + self._key_to_int(suffix)) % (2**63)
        )
