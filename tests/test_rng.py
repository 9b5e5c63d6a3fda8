"""``dynevo.rng`` draws exactly what numpy draws.

Two of its functions port numpy internals: :func:`derive_streams` runs
``SeedSequence``'s hash on arrays, and ``RngStream.randrange`` runs the
bounded-integer draw of ``Generator.integers`` in Python. These tests pin
both against numpy itself, so a numpy that changes either algorithm fails
here rather than silently changing every run.
"""

import numpy as np
import pytest

from dynevo.rng import (
    PURPOSE_MUTATE,
    PURPOSE_PERTURB,
    RngStream,
    derive_stream,
    derive_streams,
)

MASK64 = (1 << 64) - 1
SLOTS = range(70)


def _numpy_stream(master, generation, slot, purpose):
    ss = np.random.SeedSequence(master & MASK64, spawn_key=(generation, slot, purpose))
    return ss, np.random.Generator(np.random.PCG64(ss))


@pytest.mark.parametrize("purpose", [PURPOSE_PERTURB, PURPOSE_MUTATE])
@pytest.mark.parametrize("generation", [0, 2**32 + 1])
@pytest.mark.parametrize("master", [0, 1, 2**32 + 5, 2**63 + 7, -1])
def test_derive_streams_equal_seed_sequence(master, generation, purpose):
    streams = derive_streams(master, generation, SLOTS, purpose)
    assert len(streams) == len(SLOTS)
    for slot, stream in zip(SLOTS, streams):
        ss, gen = _numpy_stream(master, generation, slot, purpose)
        words = stream._gen.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert words.tolist() == ss.generate_state(4, np.uint64).tolist()
        assert stream.normal_array(3) == gen.standard_normal(3).tolist()
        assert stream.randrange(1000) == int(gen.integers(0, 1000))
        assert stream.normal() == float(gen.standard_normal())


def test_derive_stream_is_one_slot_of_derive_streams():
    streams = derive_streams(9, 4, [0, 5, 63], PURPOSE_MUTATE)
    for slot, stream in zip([0, 5, 63], streams):
        alone = derive_stream(9, 4, slot, PURPOSE_MUTATE)
        assert alone.normal_array(4) == stream.normal_array(4)


def test_derive_streams_rejects_negative_keys():
    with pytest.raises(ValueError):
        derive_streams(0, -1, [0], PURPOSE_PERTURB)


BOUNDS = [1, 2, 3, 7, 17, 30, 100, 1000, 2**31 - 1, 2**31 + 1, 2**32]


def _interleave(i, ours, theirs):
    """Every few draws, a 64-bit draw of another kind on both streams."""
    if i % 3 == 0:
        assert ours.normal() == float(theirs.standard_normal())
    if i % 5 == 1:
        assert ours.normal_array(i % 4) == theirs.standard_normal(i % 4).tolist()
    if i % 7 == 2:
        assert ours.uniform(-1.0, 2.0, 3).tolist() == theirs.uniform(-1.0, 2.0, 3).tolist()


@pytest.mark.parametrize("n", BOUNDS)
def test_randrange_equals_generator_integers(n):
    """2**31 + 1 rejects about half of its words."""
    ours, theirs = RngStream(n), np.random.Generator(np.random.PCG64(n))
    for i in range(3000):
        assert ours.randrange(n) == int(theirs.integers(0, n))
        _interleave(i, ours, theirs)


def test_randrange_mixed_bounds_share_the_half_word():
    """A kept high half serves the next 32-bit draw, whatever its bound."""
    ours, theirs = RngStream(2024), np.random.Generator(np.random.PCG64(2024))
    for i in range(6000):
        n = BOUNDS[i % len(BOUNDS)]
        assert ours.randrange(n) == int(theirs.integers(0, n))
        _interleave(i, ours, theirs)


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1, 2**64 + 1])
def test_randrange_rejects_bounds_out_of_range(n):
    with pytest.raises(ValueError):
        RngStream(0).randrange(n)
