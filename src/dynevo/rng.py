"""Deterministic random streams.

Every piece of randomness in this project flows through an explicitly
passed :class:`RngStream`; there is no global RNG. Streams are backed by
numpy's PCG64 generator, which produces identical sequences for identical
seeds on every platform.

The loop's stream ``(generation, slot, purpose)`` is seeded by
``SeedSequence(master_seed, spawn_key=(generation, slot, purpose))``, so
results are a pure function of the master seed, whatever the scheduling;
:func:`derive_streams` runs that hash for a whole generation at once.
``RngStream.randrange`` draws what ``Generator.integers(0, n)`` draws, in
Python: nothing for ``n == 1``, else Lemire's method on the 32-bit halves
of 64-bit ``random_raw()`` words, low half first, for ``n`` up to
``2**32``: every bound is the length of a list. The stream keeps the
spare high half, so no other draw on it may use numpy's 32-bit words.
``tests/test_rng.py`` pins both to numpy.
"""

from __future__ import annotations

from itertools import accumulate, permutations

import numpy as np

# Purpose tags for derived streams. Distinct tags give statistically
# independent streams for the same (master_seed, generation, slot).
PURPOSE_PERTURB = 0
PURPOSE_MUTATE = 1

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# numpy's SeedSequence constants.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_STATE_MULTS = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)],
                        dtype=np.uint32)[:, None]


class RngStream:
    """A seedable stream of uniform integers and normal deviates.

    Wraps ``numpy.random.Generator(PCG64)`` and exposes just the sampling
    primitives the engine needs. Mutations consume values in a documented
    order, so a scripted stand-in implementing the same methods can force
    specific choices in tests. ``randrange`` draws by numpy's rule and
    keeps a spare 32-bit half-word, so no draw may use numpy's own 32-bit
    words; the others take 64-bit words.
    """

    __slots__ = ("_gen", "_raw", "_half")

    def __init__(self, seed) -> None:
        if not isinstance(seed, _SeedWords):
            seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._raw = self._gen.bit_generator.random_raw
        self._half = None

    def _word32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            raw = self._raw()
            half, self._half = raw & _MASK32, raw >> 32
        return half

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``; equals ``int(Generator.integers(0, n))``.

        Lemire's method: a 32-bit word times ``n``, redrawn while its low 32
        bits are below ``(2**32 - n) % n``; the high part is the draw. Every
        caller passes a list's length, so ``n`` above ``2**32`` is rejected.
        """
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError("randrange() requires 1 <= n <= 2**32")
        m = self._word32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._word32() * n
        return m >> 32

    def normal(self) -> float:
        """One standard-normal deviate."""
        return float(self._gen.standard_normal())

    def normal_array(self, n: int) -> list[float]:
        """``n`` standard-normal deviates as plain floats."""
        return self.normals(n).tolist()

    def normals(self, n: int) -> np.ndarray:
        """The deviates of ``normal_array(n)`` as one float64 array."""
        return self._gen.standard_normal(n)

    def uniform(self, low, high, size=None):
        """Uniform floats; mirrors ``Generator.uniform`` exactly.

        Environment resets call this so that a given reset seed produces
        the same initial state as the reference implementations, which
        sample through the identical PCG64 code path.
        """
        return self._gen.uniform(low, high, size)


class _SeedWords:
    """One derived stream's four ``uint64`` seed words, handed to PCG64."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("derived seed words serve PCG64 only")
        return self.words


def _uint32_words(value: int) -> list[int]:
    """A spawn-key entry as ``SeedSequence`` splits it: 32-bit words, low first."""
    if value < 0:
        raise ValueError("stream keys must be non-negative")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def derive_streams(master_seed: int, generation: int, slots, purpose: int) -> list[RngStream]:
    """The ``(generation, slot, purpose)`` stream of every slot in ``slots``.

    The master seed's words fill and cross-mix the pool of four words in
    Python ints, masked to 32 bits. Each spawn-key word then mixes into all
    four at once: the pool becomes a ``(4, slots)`` ``uint32`` array, whose
    arithmetic wraps as numpy's does, and the slot word is a row.
    """
    # PCG64 takes a registered ISeedSequence; registering at import would load numpy.random.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    m = master_seed & _MASK64
    key = [*_uint32_words(generation), np.asarray(slots, dtype=np.uint32)[None, :],
           *_uint32_words(purpose)]
    a = list(accumulate(range(4 * (4 + len(key))), lambda mult, _: mult * _MULT_A & _MASK32,
                        initial=_INIT_A))  # the multiplier the hash walks, one per word it mixes
    # The run entropy is padded to the pool size because a spawn key follows.
    pool = [_hashmix(w, a[k], a[k + 1]) for k, w in enumerate((m & _MASK32, m >> 32, 0, 0))]
    for k, (i_src, i_dst) in enumerate(permutations(range(4), 2), 4):
        pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], a[k], a[k + 1]))
    pool = np.array(pool, dtype=np.uint32)[:, None]
    c = np.array(a[16:], dtype=np.uint32)[:, None]
    for k, word in zip(range(0, len(c), 4), key):
        pool = _mix(pool, _hashmix(word, c[k : k + 4], c[k + 1 : k + 5]))
    # generate_state(4, uint64): eight words, twice round the pool, paired low first.
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_MULTS[:-1], _STATE_MULTS[1:])
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [RngStream(_SeedWords(row)) for row in words]


def derive_stream(master_seed: int, generation: int, slot: int, purpose: int) -> RngStream:
    """One slot's stream: the one-slot case of :func:`derive_streams`."""
    return derive_streams(master_seed, generation, [slot], purpose)[0]
