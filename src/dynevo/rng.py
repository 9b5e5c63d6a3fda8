"""Deterministic random streams.

Every piece of randomness in this project flows through an explicitly
passed :class:`RngStream`; there is no global RNG. Streams are backed by
numpy's PCG64 generator, which produces identical sequences for identical
seeds on every platform.

Stream derivation for the evolutionary loop uses numpy ``SeedSequence``
with a spawn key of ``(generation, slot, purpose)``, so results are a pure
function of the master seed and never depend on worker scheduling.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for derived streams. Distinct tags give statistically
# independent streams for the same (master_seed, generation, slot).
PURPOSE_PERTURB = 0
PURPOSE_MUTATE = 1

_MASK64 = (1 << 64) - 1


class RngStream:
    """A seedable stream of uniform integers and normal deviates.

    Thin wrapper around ``numpy.random.Generator(PCG64)`` exposing just
    the sampling primitives the engine needs. Mutations consume values in
    a documented order, so a scripted stand-in implementing the same
    methods can force specific choices in tests.
    """

    __slots__ = ("_gen",)

    def __init__(self, seed) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._gen = np.random.Generator(np.random.PCG64(seed))
        else:
            self._gen = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        return int(self._gen.integers(0, n))

    def normal(self) -> float:
        """One standard-normal deviate."""
        return float(self._gen.standard_normal())

    def normal_array(self, n: int) -> list[float]:
        """``n`` standard-normal deviates as plain floats."""
        return self._gen.standard_normal(n).tolist()

    def uniform(self, low, high, size=None):
        """Uniform floats; mirrors ``Generator.uniform`` exactly.

        Environment resets call this so that a given reset seed produces
        the same initial state as the reference implementations, which
        sample through the identical PCG64 code path.
        """
        return self._gen.uniform(low, high, size)


def derive_stream(master_seed: int, generation: int, slot: int, purpose: int) -> RngStream:
    """Per-agent, per-generation, per-purpose stream.

    Distinct argument tuples yield independent-behaving streams; the
    mapping is pure, so any worker can recreate any agent's stream.
    """
    ss = np.random.SeedSequence(
        master_seed & _MASK64, spawn_key=(generation, slot, purpose)
    )
    return RngStream(ss)
