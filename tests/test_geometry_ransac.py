"""Tests for repro.geometry.ransac."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import ransac as ransac_module
from repro.geometry.ransac import (
    _choice2_from_uint32,
    _draw_pairs,
    ransac_rigid_2d,
)
from repro.geometry.se2 import SE2

from tests._reference.ransac import reference_ransac_rigid_2d


def make_correspondences(rng, gt, n_inliers=30, n_outliers=0, noise=0.0):
    src = rng.uniform(-30, 30, (n_inliers + n_outliers, 2))
    dst = gt.apply(src)
    if noise:
        dst += rng.normal(0, noise, dst.shape)
    if n_outliers:
        dst[n_inliers:] = rng.uniform(-30, 30, (n_outliers, 2))
    return src, dst


class TestRansacCleanData:
    def test_exact_recovery(self, rng):
        gt = SE2(0.6, 4.0, -1.0)
        src, dst = make_correspondences(rng, gt)
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert result.num_inliers == 30
        assert result.transform.is_close(gt, atol_translation=1e-6,
                                         atol_rotation=1e-8)

    def test_rmse_reported(self, rng):
        gt = SE2(0.1, 1.0, 1.0)
        src, dst = make_correspondences(rng, gt, noise=0.05)
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert 0.0 < result.rmse < 0.15


class TestRansacOutliers:
    @pytest.mark.parametrize("n_outliers", [10, 30, 60])
    def test_robust_to_outliers(self, rng, n_outliers):
        gt = SE2(-0.9, 2.0, 7.0)
        src, dst = make_correspondences(rng, gt, n_inliers=30,
                                        n_outliers=n_outliers, noise=0.02)
        result = ransac_rigid_2d(src, dst, threshold=0.3, rng=rng)
        assert result.success
        assert result.transform.translation_distance(gt) < 0.1
        # Inlier mask should capture (at least most of) the true inliers.
        assert result.inlier_mask[:30].sum() >= 25

    def test_inlier_mask_aligned_with_inputs(self, rng):
        gt = SE2(0.0, 5.0, 0.0)
        src, dst = make_correspondences(rng, gt, n_inliers=20,
                                        n_outliers=5)
        result = ransac_rigid_2d(src, dst, threshold=0.2, rng=rng)
        assert result.inlier_mask.shape == (25,)
        assert result.num_inliers == int(result.inlier_mask.sum())


class TestRansacEdgeCases:
    def test_too_few_points_fails_gracefully(self, rng):
        result = ransac_rigid_2d(np.zeros((1, 2)), np.zeros((1, 2)),
                                 threshold=1.0, rng=rng)
        assert not result.success
        assert result.num_inliers == 0

    def test_empty_input(self, rng):
        result = ransac_rigid_2d(np.empty((0, 2)), np.empty((0, 2)),
                                 threshold=1.0, rng=rng)
        assert not result.success

    def test_all_outliers_fails(self, rng):
        src = rng.uniform(-10, 10, (20, 2))
        dst = rng.uniform(-10, 10, (20, 2))
        result = ransac_rigid_2d(src, dst, threshold=0.01,
                                 min_inliers=5, rng=rng)
        # Random pairings should not yield 5 points agreeing to 1 cm.
        assert not result.success or result.num_inliers < 8

    def test_coincident_points_skipped(self, rng):
        # Degenerate samples (duplicate source points) must not crash.
        src = np.zeros((10, 2))
        src[5:] = [[1, 1]] * 5
        dst = src + [2.0, 0.0]
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert result.transform.translation_distance(SE2(0, 2, 0)) < 1e-6

    def test_rejects_bad_threshold(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((5, 2)),
                            threshold=0.0, rng=rng)

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((4, 2)), rng=rng)

    def test_rejects_min_inliers_below_two(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((5, 2)),
                            min_inliers=1, rng=rng)

    def test_deterministic_with_seed(self):
        rng_data = np.random.default_rng(0)
        gt = SE2(0.5, 1.0, 1.0)
        src, dst = make_correspondences(rng_data, gt, n_inliers=15,
                                        n_outliers=15)
        r1 = ransac_rigid_2d(src, dst, threshold=0.3, rng=42)
        r2 = ransac_rigid_2d(src, dst, threshold=0.3, rng=42)
        assert r1.transform.is_close(r2.transform)
        assert r1.num_inliers == r2.num_inliers


# ---------------------------------------------------------------------------
# The batched sampler's exactness contract: the pairs and the generator
# position are those of a loop of rng.choice(n, size=2, replace=False).
# ---------------------------------------------------------------------------

MASK32 = 0xFFFFFFFF

POPULATIONS = st.one_of(
    st.sampled_from([2, 3]
                    + [2 ** k + d for k in range(2, 14) for d in (-1, 0, 1)]
                    + [9999, 10000]),
    st.integers(2, 10000))


def choice_loop(rng, n, trials):
    return np.array([rng.choice(n, size=2, replace=False)
                     for _ in range(trials)]).reshape(trials, 2)


def start_state(seed, buffered, uinteger=0):
    """A PCG64 generator, optionally holding a buffered uint32 half."""
    rng = np.random.default_rng(seed)
    if buffered:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, uinteger
        rng.bit_generator.state = state
    return rng


def choice2_words(words, n):
    """numpy's Generator.choice(n, 2, replace=False) transcribed word by
    word: Floyd's algorithm over Lemire-bounded draws, then a one-step
    shuffle.  Returns the pair and the number of words consumed."""
    stream = iter(words)
    consumed = 0

    def bounded(rng):  # a draw in [0, rng]
        nonlocal consumed
        if rng == 0:
            return 0
        excl = rng + 1
        consumed += 1
        m = next(stream) * excl
        if m & MASK32 < excl:
            threshold = (MASK32 - rng) % excl
            while m & MASK32 < threshold:
                consumed += 1
                m = next(stream) * excl
        return m >> 32

    pair = []
    for j in (n - 2, n - 1):
        val = bounded(j)
        pair.append(j if val in pair else val)
    if bounded(1) == 0:
        pair.reverse()
    return pair, consumed


def uint32_stream(seed, words):
    """The first ``words`` next_uint32 outputs of a fresh PCG64(seed)."""
    raw = np.random.PCG64(seed).random_raw((words + 1) // 2)
    return np.stack([raw & np.uint64(MASK32), raw >> np.uint64(32)],
                    axis=1).ravel()[:words]


def generator_at_word(seed, word):
    """A generator whose next_uint32 stream starts at ``word`` of
    PCG64(seed)'s stream."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(word // 2)
    if word % 2:
        high = int(bitgen.random_raw() >> np.uint64(32))
        bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": high}
    return np.random.Generator(bitgen)


class TestBatchedSampler:
    @given(n=POPULATIONS, trials=st.integers(1, 128),
           seed=st.integers(0, 2 ** 32 - 1), buffered=st.booleans(),
           uinteger=st.integers(0, MASK32))
    @settings(max_examples=200, deadline=None)
    def test_matches_choice_loop(self, n, trials, seed, buffered, uinteger):
        rng = start_state(seed, buffered, uinteger)
        ref = start_state(seed, buffered, uinteger)
        idx, settle = _draw_pairs(rng, n, trials)
        settle(trials)
        assert np.array_equal(idx, choice_loop(ref, n, trials))
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(n=POPULATIONS, trials=st.integers(2, 128),
           seed=st.integers(0, 2 ** 32 - 1), buffered=st.booleans(),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mid_chunk_settle_matches_consumed_calls(self, n, trials, seed,
                                                     buffered, data):
        consumed = data.draw(st.integers(1, trials - 1))
        rng = start_state(seed, buffered, 12345)
        ref = start_state(seed, buffered, 12345)
        idx, settle = _draw_pairs(rng, n, trials)
        settle(consumed)
        assert np.array_equal(idx[:consumed], choice_loop(ref, n, consumed))
        assert rng.bit_generator.state == ref.bit_generator.state
        # The next draws continue the same stream.
        assert np.array_equal(choice_loop(rng, n, 3), choice_loop(ref, n, 3))

    def test_synthetic_lemire_rejection(self):
        # n = 3: Floyd draws in [0, 1] then [0, 2], the shuffle in [0, 1].
        # A word of 0 on the [0, 2] draw leaves a low half of 0 < 2**32 % 3
        # and is rejected; the next word is taken in its place.
        words = np.array([0x80000000, 0, 0x80000000, MASK32], np.uint64)
        pairs, ends = _choice2_from_uint32(words, 3, 1)
        # Draws 1 and 1 collide, so Floyd inserts n - 1 = 2; the shuffle
        # draw 1 keeps the order.
        assert pairs.tolist() == [[1, 2]]
        assert ends.tolist() == [4]

    @given(n=POPULATIONS, trials=st.integers(1, 16),
           words=st.lists(st.one_of(st.just(0), st.integers(0, MASK32)),
                          min_size=200, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_helper_matches_word_by_word_transcription(self, n, trials,
                                                        words):
        # Zero words are rejected by every bound that does not divide
        # 2**32, so rejections are frequent here.
        expected, expected_ends, pos = [], [], 0
        for _ in range(trials):
            try:
                pair, used = choice2_words(words[pos:], n)
            except StopIteration:  # the stream ran out mid-trial
                break
            pos += used
            expected.append(pair)
            expected_ends.append(pos)
        pairs, ends = _choice2_from_uint32(np.array(words, np.uint64), n,
                                           trials)
        assert pairs.tolist() == expected
        assert ends.tolist() == expected_ends

    def test_helper_stops_when_the_stream_runs_out(self):
        pairs, ends = _choice2_from_uint32(np.zeros(7, np.uint64) + 5, 50, 4)
        assert len(pairs) == len(ends) == 2
        assert ends.tolist() == [3, 6]

    @pytest.mark.parametrize("draw", [0, 1])
    def test_real_generator_rejection(self, draw):
        """A PCG64 stream positioned so that Floyd's first (draw 0) or
        second (draw 1) word is a Lemire rejection."""
        n, seed = 10000, 0
        bound = n - 1 + draw
        words = uint32_stream(seed, 2_000_000)
        low = (words * np.uint64(bound)) & np.uint64(MASK32)
        hit = int(np.flatnonzero(low < np.uint64((1 << 32) % bound))[0])
        start = hit - draw
        _, ends = _choice2_from_uint32(words[start:start + 12], n, 1)
        assert ends.tolist() == [4]  # the rejected word cost one extra

        rng = generator_at_word(seed, start)
        ref = generator_at_word(seed, start)
        idx, settle = _draw_pairs(rng, n, 5)
        settle(5)
        assert np.array_equal(idx, choice_loop(ref, n, 5))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("consumed", [1, 9, 16])
    def test_other_bit_generator_takes_the_loop(self, consumed):
        rng = np.random.Generator(np.random.MT19937(3))
        ref = np.random.Generator(np.random.MT19937(3))
        idx, settle = _draw_pairs(rng, 40, 16)
        settle(consumed)
        assert np.array_equal(idx[:consumed], choice_loop(ref, 40, consumed))
        assert rng.bit_generator.state["state"]["pos"] == \
            ref.bit_generator.state["state"]["pos"]
        assert np.array_equal(rng.random(4), ref.random(4))

    def test_population_past_floyd_cutover_takes_the_loop(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        idx, settle = _draw_pairs(rng, 10001, 8)
        settle(3)
        assert np.array_equal(idx[:3], choice_loop(ref, 10001, 3))
        assert rng.bit_generator.state == ref.bit_generator.state


    def test_stream_run_short_takes_the_loop(self, monkeypatch):
        # More rejections than the drawn slack: the replay returns too few
        # pairs and the sampler must take the loop from the start state.
        def short(words, n, trials):
            pairs, ends = _choice2_from_uint32(words, n, trials)
            return pairs[:-1], ends[:-1]
        monkeypatch.setattr(ransac_module, "_choice2_from_uint32", short)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        idx, settle = _draw_pairs(rng, 30, 10)
        settle(4)
        assert np.array_equal(idx[:4], choice_loop(ref, 30, 4))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRansacStream:
    """ransac_rigid_2d leaves the generator where the sequential
    reference loop leaves it."""

    def assert_same_run(self, src, dst, make_rng, **kwargs):
        rng, ref_rng = make_rng(), make_rng()
        result = ransac_rigid_2d(src, dst, rng=rng, **kwargs)
        ref = reference_ransac_rigid_2d(src, dst, rng=ref_rng, **kwargs)
        assert result.iterations == ref.iterations
        assert np.array_equal(result.inlier_mask, ref.inlier_mask)
        assert np.array_equal(rng.random(8), ref_rng.random(8))
        return result

    def test_mid_chunk_adaptive_stop(self):
        # Clean data: the first good hypothesis stops the run after a
        # handful of trials, well inside the first chunk.
        src, dst = make_correspondences(np.random.default_rng(1),
                                        SE2(0.3, 2.0, -1.0), n_inliers=40)
        result = self.assert_same_run(
            src, dst, lambda: np.random.default_rng(8), threshold=0.5)
        assert 1 <= result.iterations < 16

    def test_mt19937_generator(self):
        src, dst = make_correspondences(np.random.default_rng(2),
                                        SE2(-0.4, 1.0, 3.0), n_inliers=20,
                                        n_outliers=30, noise=0.02)
        self.assert_same_run(
            src, dst, lambda: np.random.Generator(np.random.MT19937(4)),
            threshold=0.3)
