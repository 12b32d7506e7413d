"""Seeded sub-streams against numpy's own seeding of the same key."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import rng

SEEDS = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from([0, 2**32 - 1, 2**32, 4294967301, -1]),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.uint32, st.integers(0, 2**32 - 1)),
)
LABELS = st.one_of(st.text(max_size=12), st.integers(-2**70, 2**70))
ROW_WORDS = st.integers(-2**63, 2**63 - 1)


def numpy_stream(seed, *labels) -> np.random.Generator:
    """The documented key, one 32-bit word per part, seeded by numpy:
    the seed and int labels mod 2**32, string labels by CRC-32."""
    words = [int(seed) & 0xFFFFFFFF]
    for label in labels:
        if isinstance(label, str):
            words.append(zlib.crc32(label.encode("utf-8")))
        else:
            words.append(int(label) & 0xFFFFFFFF)
    return np.random.default_rng(words)


def assert_same_draws(got: np.random.Generator, expected: np.random.Generator):
    np.testing.assert_array_equal(got.integers(0, 2**63, size=3),
                                  expected.integers(0, 2**63, size=3))
    np.testing.assert_array_equal(got.standard_normal((2, 3)),
                                  expected.standard_normal((2, 3)))


# Keys of 1-7 words: shorter than, equal to and longer than numpy's 4-word
# entropy pool.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=SEEDS, labels=st.lists(LABELS, max_size=3), data=st.data())
def test_substreams_rows_draw_what_numpy_seeds(seed, labels, data):
    k = data.draw(st.integers(0, 6 - len(labels)), label="row length")
    rows = data.draw(st.lists(st.lists(ROW_WORDS, min_size=k, max_size=k),
                              min_size=1, max_size=4), label="rows")
    streams = rng.substreams(seed, labels, np.array(rows, dtype=np.int64)
                             .reshape(len(rows), k))
    assert len(streams) == len(rows)
    for stream, row in zip(streams, rows):
        assert_same_draws(stream, numpy_stream(seed, *labels, *row))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=SEEDS, labels=st.lists(LABELS, max_size=6))
def test_substream_draws_what_numpy_seeds(seed, labels):
    assert_same_draws(rng.substream(seed, *labels), numpy_stream(seed, *labels))


def test_substreams_of_no_rows_is_empty():
    assert rng.substreams(1, ("noise",), np.empty((0, 3), dtype=np.int64)) == []
