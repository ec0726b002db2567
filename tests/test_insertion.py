"""Unit tests for the §5 partition-insertion policies."""
import hashlib
import random

import pytest

from repro.insertion import (
    AppendN,
    BestFit,
    FirstFitPct,
    NAMES,
    NextFit,
    RandomPct,
    make_policy,
)

CAP = 1000


def frames_with_free(*free_bytes):
    """A partition's free-byte list: frames whose free space is exactly
    the given values (oldest first)."""
    return list(free_bytes)


ALL_NAMES = sorted(NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestCommonBehaviour:
    def test_empty_partition_returns_none(self, name):
        pol = make_policy(name, seed=0)
        assert pol.find_frame([], 100) is None

    def test_returned_frame_fits(self, name):
        pol = make_policy(name, seed=0)
        frames = frames_with_free(50, 300, 120, 800, 10)
        idx = pol.find_frame(frames, 100)
        if idx is not None:
            assert frames[idx] >= 100

    def test_no_frame_fits_returns_none(self, name):
        pol = make_policy(name, seed=0)
        frames = frames_with_free(50, 20, 90, 10)
        assert pol.find_frame(frames, 100) is None

    def test_search_counter_increments(self, name):
        pol = make_policy(name, seed=0)
        frames = frames_with_free(10, 10, 10)
        pol.find_frame(frames, 100)
        assert pol.frames_searched >= 1


class TestAppendN:
    def test_checks_only_last_n(self):
        pol = AppendN(2)
        # only frame 0 (oldest) has space; Append(2) must not see it
        frames = frames_with_free(900, 10, 10)
        assert pol.find_frame(frames, 100) is None
        assert pol.frames_searched == 2

    def test_finds_within_window(self):
        pol = AppendN(2)
        frames = frames_with_free(10, 500, 10)
        assert pol.find_frame(frames, 100) == 1

    def test_newest_first(self):
        pol = AppendN(8)
        frames = frames_with_free(500, 500, 500)
        assert pol.find_frame(frames, 100) == 2  # newest wins

    @pytest.mark.parametrize("n", [0, -3])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError):
            AppendN(n)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_search_bounded_by_n(self, n):
        pol = AppendN(n)
        frames = frames_with_free(*([0] * 20))
        pol.find_frame(frames, 100)
        assert pol.frames_searched == min(n, 20)


class TestFirstFit:
    """First-Fit is First-Fit(100%): every frame may be searched."""

    def test_scans_all_until_fit(self):
        pol = FirstFitPct(1.0)
        frames = frames_with_free(800, 10, 10, 10)
        assert pol.find_frame(frames, 100) == 0
        assert pol.frames_searched == 4

    def test_stops_at_first_fit_from_newest(self):
        pol = FirstFitPct(1.0)
        frames = frames_with_free(800, 10, 500, 10)
        assert pol.find_frame(frames, 100) == 2
        assert pol.frames_searched == 2


class TestFirstFitPct:
    def test_limit_is_ceil_of_pct(self):
        pol = FirstFitPct(0.10)
        frames = frames_with_free(*([0] * 25))
        pol.find_frame(frames, 100)
        assert pol.frames_searched == 3  # ceil(0.1 * 25)

    def test_first_fit_is_the_full_pct(self):
        pol = make_policy("first-fit", seed=0)
        assert type(pol) is FirstFitPct and pol.pct == 1.0

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_invalid_pct(self, p):
        with pytest.raises(ValueError):
            FirstFitPct(p)


class TestBestFit:
    def test_picks_tightest(self):
        pol = BestFit()
        frames = frames_with_free(500, 120, 300, 101)
        assert pol.find_frame(frames, 100) == 3

    def test_exact_fit_short_circuits(self):
        pol = BestFit()
        frames = frames_with_free(500, 100, 300)
        assert pol.find_frame(frames, 100) == 1
        assert pol.frames_searched == 2  # newest-first scan stops at the exact fit

    def test_searches_everything_otherwise(self):
        pol = BestFit()
        frames = frames_with_free(500, 120, 300, 400)
        pol.find_frame(frames, 100)
        assert pol.frames_searched == 4


class TestNextFit:
    def test_first_record_from_newest(self):
        pol = NextFit()
        frames = frames_with_free(500, 500, 500)
        assert pol.find_frame(frames, 100) == 2

    def test_resumes_from_last_insertion(self):
        pol = NextFit()
        frames = frames_with_free(500, 500, 500)
        pol.notify_inserted(1, 200)
        # smaller record → older frames first: starts at index 1
        idx = pol.find_frame(frames, 100)
        assert idx == 1

    def test_larger_record_goes_newer(self):
        pol = NextFit()
        frames = frames_with_free(900, 10, 900)
        pol.notify_inserted(1, 200)
        # larger than last (200): search toward newer from index 1
        assert pol.find_frame(frames, 300) == 2

    def test_smaller_record_falls_back_to_newer(self):
        pol = NextFit()
        frames = frames_with_free(10, 10, 900)
        pol.notify_inserted(1, 200)
        # smaller: older first (1, 0 fail), then newer (2 fits)
        assert pol.find_frame(frames, 100) == 2

    def test_notify_spilled_resets_state(self):
        pol = NextFit()
        pol.notify_inserted(5, 100)
        pol.notify_spilled()
        frames = frames_with_free(500)
        assert pol.find_frame(frames, 100) == 0  # fresh newest-first search

    def test_stale_index_is_ignored(self):
        pol = NextFit()
        pol.notify_inserted(10, 100)
        frames = frames_with_free(500, 500)
        assert pol.find_frame(frames, 100) in (0, 1)


class TestRandomPct:
    def test_deterministic_given_seed(self):
        frames = frames_with_free(500, 10, 500, 10, 500, 10, 500, 10, 500, 10)
        a = RandomPct(0.5, seed=42)
        b = RandomPct(0.5, seed=42)
        seq_a = [a.find_frame(frames, 100) for _ in range(20)]
        seq_b = [b.find_frame(frames, 100) for _ in range(20)]
        assert seq_a == seq_b

    def test_sample_size_bounded(self):
        pol = RandomPct(0.10, seed=1)
        frames = frames_with_free(*([0] * 30))
        pol.find_frame(frames, 100)
        assert pol.frames_searched == 3  # ceil(0.1 * 30)

    def test_single_frame_partition(self):
        pol = RandomPct(0.10, seed=1)
        frames = frames_with_free(500)
        assert pol.find_frame(frames, 100) == 0

    @pytest.mark.parametrize("p", [0.0, 1.01])
    def test_invalid_pct(self, p):
        with pytest.raises(ValueError):
            RandomPct(p)


class TestRegistry:
    def test_default_policies_complete(self):
        assert set(NAMES) == {
            "append(8)", "first-fit", "first-fit(10%)", "best-fit",
            "next-fit", "random(10%)"}

    def test_make_policy_unknown_raises(self):
        with pytest.raises(KeyError):
            make_policy("worst-fit", seed=0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_make_policy_returns_fresh_instances(self, name):
        assert make_policy(name, seed=0) is not make_policy(name, seed=0)


def search_sequence(policy, steps=2000, seed=2022):
    """``(index, frames searched)`` of each ``find_frame`` call over one
    seeded stream of record sizes, each record placed where the policy
    says (a new frame on None), with an occasional spill that empties
    the partition. Sizes are mostly multiples of 50 B, so exact fits
    (Best-Fit's early stop) are common."""
    rng = random.Random(seed)
    free, seq = [], []
    for _ in range(steps):
        if rng.random() < 0.004:
            free = []
            policy.notify_spilled()
        size = 50 * rng.randint(1, 8) if rng.random() < 0.7 else rng.randint(1, CAP)
        before = policy.frames_searched
        idx = policy.find_frame(free, size)
        seq.append((idx, policy.frames_searched - before))
        if idx is None:
            free.append(CAP - size)
            policy.notify_inserted(len(free) - 1, size)
        else:
            free[idx] -= size
            policy.notify_inserted(idx, size)
    return seq


# Recorded with frames as objects, before the policies searched a list of
# free bytes, Random(10%) seeded with 3: the first ten calls, the total
# frames searched, the calls that found no frame and a sha256 prefix of
# the whole sequence's repr.
PINNED = {
    "append(8)": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                   (1, 1), (1, 1), (None, 2), (1, 2), (1, 2)],
                  6980, 676, "b3bf03b42286cb84"),
    "first-fit": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                   (1, 1), (1, 1), (None, 2), (1, 2), (1, 2)],
                  32897, 664, "979c63b5a4d2c4ab"),
    "first-fit(10%)": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                        (1, 1), (1, 1), (None, 1), (None, 1), (3, 1)],
                       5346, 700, "b05cfbc0bcc7f280"),
    "best-fit": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                  (1, 2), (1, 2), (None, 2), (1, 3), (1, 3)],
                 82409, 637, "b5dfb5b6072bf526"),
    "next-fit": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                  (1, 1), (1, 1), (None, 1), (1, 2), (1, 1)],
                 8130, 683, "76b090f56c3d3064"),
    "random(10%)": ([(None, 0), (0, 1), (0, 1), (0, 1), (None, 1),
                     (None, 1), (2, 1), (None, 1), (None, 1), (2, 1)],
                    6709, 715, "5763107833feef7f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_search_sequence(name):
    head, searched, misses, digest = PINNED[name]
    seq = search_sequence(make_policy(name, seed=3))
    assert seq[:10] == head
    assert sum(n for _, n in seq) == searched
    assert sum(idx is None for idx, _ in seq) == misses
    assert hashlib.sha256(repr(seq).encode()).hexdigest()[:16] == digest
