import math
from unittest import mock

import numpy as np
import pytest

from zoopt import numkit
from zoopt.numkit import (BLOCK_WORDS, RngStream, _box_muller, _unit_interval,
                          block_spans, sample_unit_ball,
                          sample_unit_sphere, weighted_row_sum)

# first raw words of seed 42, frozen from a verified run: regression anchor for
# the pinned generator algorithm
GOLDEN_SEED42 = [13679457532755275413, 2949826092126892291, 5139283748462763858]


def test_equal_seeds_equal_sequences():
    a, b = RngStream(123), RngStream(123)
    assert np.array_equal(a.raw(1000), b.raw(1000))
    a, b = RngStream(123), RngStream(123)
    assert np.array_equal(a.normal(101), b.normal(101))


def test_golden_raw_words():
    assert list(RngStream(42).raw(3)) == GOLDEN_SEED42


def test_block_draws_match_sequential():
    block = RngStream(7).normal(20)
    seq = RngStream(7)
    parts = np.concatenate([seq.normal(5) for _ in range(4)])
    assert np.array_equal(block, parts)


def test_uniform_range():
    u = RngStream(5).uniform(10_000)
    assert np.all((0.0 <= u) & (u < 1.0))


def test_integers_range_and_determinism():
    a = RngStream(9).integers(1000, 3, 17)
    assert a.min() >= 3 and a.max() < 17
    assert np.array_equal(a, RngStream(9).integers(1000, 3, 17))
    with pytest.raises(ValueError):
        RngStream(9).integers(5, 2, 2)


def test_choice_without_replacement():
    rng = RngStream(11)
    for _ in range(50):
        pick = rng.choice_without_replacement(10, 6)
        assert len(set(pick.tolist())) == 6
        assert all(0 <= i < 10 for i in pick)


def test_sphere_dim_one_is_sign_fair():
    rng = RngStream(2)
    draws = np.array([sample_unit_sphere(1, rng)[0] for _ in range(10_000)])
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    assert abs(np.mean(draws > 0) - 0.5) <= 0.01


def test_sphere_norm_is_one():
    rng = RngStream(3)
    for _ in range(100):
        u = sample_unit_sphere(3, rng)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_sphere_coordinate_means_vanish():
    rng = RngStream(4)
    total = np.zeros(5)
    n = 100_000
    for _ in range(n):
        total += sample_unit_sphere(5, rng)
    assert np.all(np.abs(total / n) <= 0.01)


def test_sphere_rejects_dim_zero():
    with pytest.raises(ValueError):
        sample_unit_sphere(0, RngStream(0))
    with pytest.raises(ValueError):
        sample_unit_ball(0, RngStream(0))


def test_ball_dim_one_uniform():
    rng = RngStream(6)
    draws = np.array([sample_unit_ball(1, rng)[0] for _ in range(100_000)])
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(draws.mean()) <= 0.01


def test_ball_second_moment_dim_two():
    # E||u||^2 over the d-ball is d/(d+2); for d=2 that is 1/2
    rng = RngStream(7)
    sq = np.empty(100_000)
    for k in range(sq.shape[0]):
        u = sample_unit_ball(2, rng)
        assert np.dot(u, u) <= 1.0
        sq[k] = np.dot(u, u)
    assert abs(sq.mean() - 0.5) <= 0.01


def test_zero_length_draws_are_empty_and_free():
    rng = RngStream(1)
    u = rng.uniform(0)
    assert u.shape == (0,) and u.dtype == np.float64
    k = rng.integers(0, 3, 7)
    assert k.shape == (0,) and k.dtype == np.int64
    assert rng.normal(0).shape == (0,)
    assert rng._counter == 0
    assert sample_unit_sphere(4, rng, 0).shape == (0, 4)
    assert sample_unit_ball(4, rng, 0).shape == (0, 4)
    assert rng._counter == 0
    # the next draw is the stream's first word, as if nothing had been asked
    assert rng.uniform() == RngStream(1).uniform()


@pytest.mark.parametrize("draw", [
    lambda rng: rng.raw(-3),
    lambda rng: rng.uniform(-1),
    lambda rng: rng.normal(-2),
    lambda rng: rng.integers(-1, 0, 5),
    lambda rng: sample_unit_sphere(3, rng, -1),
    lambda rng: sample_unit_ball(3, rng, -1),
], ids=["raw", "uniform", "normal", "integers", "sphere", "ball"])
def test_negative_draw_counts_raise_and_leave_the_stream(draw):
    rng = RngStream(1)
    rng.raw(5)
    with pytest.raises(ValueError):
        draw(rng)
    assert rng._counter == 5
    assert np.array_equal(rng.raw(2), RngStream(1).raw(7)[5:])


_MASK = (1 << 64) - 1


class ReferenceStream:
    """The stream with no window: each call's words are made from its own
    counters by SplitMix64 in plain Python integers, then go through the
    module's conversions one call at a time."""

    def __init__(self, seed):
        self.key = seed & _MASK
        self.counter = 0

    def raw(self, n):
        out = []
        for k in range(self.counter + 1, self.counter + n + 1):
            z = (self.key + k * 0x9E3779B97F4A7C15) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(z ^ (z >> 31))
        self.counter += n
        return np.array(out, dtype=np.uint64)

    def rewind(self, n):
        self.counter -= n

    def uniform(self, n=None):
        u = _unit_interval(self.raw(1 if n is None else n))
        return float(u[0]) if n is None else u

    def normal(self, n):
        return _box_muller(self.raw(2 * n))

    # the same arithmetic on top of uniform(): only the words' source differs
    integers = RngStream.integers
    choice_without_replacement = RngStream.choice_without_replacement


def _call(stream, op, size):
    if op == "rewind":
        return stream.rewind(size)
    if op == "uniform1":
        return stream.uniform()
    if op == "integers":
        return stream.integers(size, -3, 7)
    if op == "choice":
        return stream.choice_without_replacement(size + 3, max(1, size))
    return getattr(stream, op)(size)


def test_window_draws_match_an_uncached_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ops = ("raw", "uniform", "uniform1", "normal", "integers", "choice", "rewind")

    # small windows make many refills, odd sizes both pair alignments, sizes
    # past twice the window draws that run over its edge, and long rewinds
    # move the counter to before the window's first word
    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**64 - 1),
                      window=st.sampled_from([1, 2, 5, 16, BLOCK_WORDS]),
                      calls=st.lists(st.tuples(
                          st.sampled_from(ops),
                          st.integers(0, 9) | st.integers(0, 40) | st.integers(0, 200)),
                          min_size=5, max_size=30))
    # a Gaussian pair that starts on an odd offset inside one window
    @hypothesis.example(seed=1, window=BLOCK_WORDS, calls=[
        ("raw", 3), ("raw", 3), ("normal", 1), ("uniform1", 0), ("normal", 2)])
    # a rewind to before the window's first word, then a draw that fits in it
    @hypothesis.example(seed=2, window=16, calls=[
        ("raw", 5), ("raw", 9), ("rewind", 12), ("normal", 2), ("uniform", 3)])
    def check(seed, window, calls):
        with mock.patch.object(numkit, "BLOCK_WORDS", window):
            rng, ref = RngStream(seed), ReferenceStream(seed)
            for op, size in calls:
                if op == "rewind":  # as far back as the draws so far allow
                    size = min(size, ref.counter)
                got, want = np.asarray(_call(rng, op, size)), np.asarray(_call(ref, op, size))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert rng._counter == ref.counter

    check()


# single-draw samplers exactly as the toolkit first wrote them: the reference
# the block samplers must reproduce bit for bit


def _sphere_one_at_a_time(d, rng):
    g = rng.normal(d)
    nrm = math.sqrt(float(np.dot(g, g)))
    while nrm == 0.0:
        g = rng.normal(d)
        nrm = math.sqrt(float(np.dot(g, g)))
    return g / nrm


def _ball_one_at_a_time(d, rng):
    u = _sphere_one_at_a_time(d, rng)
    return u * (rng.uniform() ** (1.0 / d))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_block_matches(make_rng, d, n):
    seq_rng, blk_rng = make_rng(), make_rng()
    sphere = [_sphere_one_at_a_time(d, seq_rng) for _ in range(n)]
    assert np.array_equal(_bits(sample_unit_sphere(d, blk_rng, n)),
                          _bits(np.reshape(sphere, (n, d))))
    assert blk_rng._counter == seq_rng._counter
    ball = [_ball_one_at_a_time(d, seq_rng) for _ in range(n)]
    assert np.array_equal(_bits(sample_unit_ball(d, blk_rng, n)),
                          _bits(np.reshape(ball, (n, d))))
    assert blk_rng._counter == seq_rng._counter
    gauss = np.concatenate([seq_rng.normal(d) for _ in range(n)] + [np.empty(0)])
    assert np.array_equal(_bits(blk_rng.normal(n * d)), _bits(gauss))
    assert blk_rng._counter == seq_rng._counter


@pytest.mark.parametrize("d", [1, 2, 3, 16, 20, 101])
def test_block_draws_match_single_draws_bitwise(d):
    _assert_block_matches(lambda: RngStream(1000 + d), d, 7)
    # more rows than one block_spans step holds
    n = BLOCK_WORDS // (2 * d) + 3
    _assert_block_matches(lambda: RngStream(2000 + d), d, n)


def test_block_draws_match_single_draws_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**64 - 1), d=st.integers(1, 40),
                      n=st.integers(0, 25))
    def check(seed, d, n):
        _assert_block_matches(lambda: RngStream(seed), d, n)

    check()


@pytest.mark.parametrize("n,words", [(0, 5), (1, 5), (7, 1), (100, 300),
                                     (BLOCK_WORDS, 2), (3, 2 * BLOCK_WORDS)])
def test_block_spans_cover_rows_in_order_within_the_cap(n, words):
    spans = list(block_spans(n, words))
    assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(n))
    for lo, hi in spans:
        assert hi > lo and ((hi - lo) * words <= BLOCK_WORDS or hi - lo == 1)


def test_draws_in_block_spans_equal_one_block():
    d, n = 6, BLOCK_WORDS // 12 * 3 + 5
    whole = sample_unit_sphere(d, RngStream(3), n)
    rng = RngStream(3)
    steps = [sample_unit_sphere(d, rng, hi - lo) for lo, hi in block_spans(n, 2 * d)]
    assert len(steps) == 4
    assert np.array_equal(_bits(np.concatenate(steps)), _bits(whole))


class ZeroWordStream(RngStream):
    """Stream whose words at the given counters are all ones.  A Gaussian
    drawn from such a pair of words is exactly 0, so covering a whole
    direction's words makes an all-zero row."""

    def __init__(self, seed, counters):
        super().__init__(seed)
        self.counters = set(counters)

    def _words(self, counter, n):
        w = super()._words(counter, n)
        for c in self.counters:
            if counter < c <= counter + n:
                w[c - counter - 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        return w


@pytest.mark.parametrize("d,zero_rows", [
    (3, [0]), (3, [2]), (3, [2, 3]), (3, [9]), (1, [0, 1, 2]), (5, [4, 6]),
])
def test_zero_norm_rows_redrawn_as_single_draws_would(d, zero_rows):
    n = 10
    # counters (1-based) of sphere rows, 2d words each, and of ball rows,
    # 2d + 1 words each with the radius word last
    cases = ((2 * d, sample_unit_sphere, _sphere_one_at_a_time),
             (2 * d + 1, sample_unit_ball, _ball_one_at_a_time))
    for row_words, block, single in cases:
        words = [1 + row_words * r + j for r in zero_rows for j in range(2 * d)]
        seq_rng, blk_rng = ZeroWordStream(5, words), ZeroWordStream(5, words)
        want = np.array([single(d, seq_rng) for _ in range(n)])
        got = block(d, blk_rng, n)
        assert np.array_equal(_bits(got), _bits(want))
        assert blk_rng._counter == seq_rng._counter
        assert np.all(np.isfinite(got))
        # the zero rows really were drawn and redrawn
        assert seq_rng._counter > n * row_words


def test_single_draw_redraws_a_zero_row():
    rng = ZeroWordStream(6, range(1, 5))  # d = 2: the first direction is zero
    u = sample_unit_sphere(2, rng)
    assert rng._counter == 8
    want = _sphere_one_at_a_time(2, ZeroWordStream(6, range(1, 5)))
    assert np.array_equal(_bits(u), _bits(want))


def test_weighted_row_sum_adds_in_row_order():
    rng = RngStream(9)
    cases = [(rng.normal(q) * 1e3, rng.normal(q * d).reshape(q, d))
             for q, d in ((1, 3), (10, 20), (48, 7))]
    # all-zero terms of negative sign: the loop's sum is +0.0, not -0.0
    cases.append((np.zeros(3), -np.ones((3, 4))))
    for coeff, u in cases:
        q, d = u.shape
        g = np.zeros(d)
        for i in range(q):
            g += coeff[i] * u[i]
        assert np.array_equal(_bits(weighted_row_sum(coeff, u)), _bits(g))


def test_rewind_replays_the_same_words():
    rng = RngStream(10)
    first = rng.raw(5)
    rng.rewind(3)
    assert np.array_equal(rng.raw(3), first[2:])
    with pytest.raises(ValueError):
        rng.rewind(6)
    with pytest.raises(ValueError):
        rng.rewind(-1)
