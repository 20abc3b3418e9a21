"""Uniform stream determinism, draw accounting, the frozen generator pin and
the raw PCG64 stream below it."""

import numpy as np
import pytest

from bubblesim import RngStream

# First ten uniforms of the chosen generator at seed 42, frozen so that any
# re-implementation (other language, other library) can match bit for bit.
SEED42_FIRST_TEN = (
    0.7739560485559633,
    0.4388784397520523,
    0.8585979199113825,
    0.6973680290593639,
    0.09417734788764953,
    0.9756223516367559,
    0.761139701990353,
    0.7860643052769538,
    0.12811363267554587,
    0.45038593789556713,
)


def test_first_ten_uniforms_for_seed_42_are_pinned():
    rng = RngStream(42)
    assert tuple(rng.uniform() for _ in range(10)) == SEED42_FIRST_TEN


@pytest.mark.parametrize("seed", [np.int64(42), np.uint64(42)])
def test_numpy_integer_seeds_give_the_same_stream(seed):
    rng = RngStream(seed)
    assert type(rng.seed) is int and rng.seed == 42
    assert tuple(rng.uniform() for _ in range(10)) == SEED42_FIRST_TEN


def test_same_seed_same_stream():
    a = RngStream(7)
    b = RngStream(7)
    assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]


def test_different_seeds_differ():
    a = [RngStream(1).uniform() for _ in range(5)]
    b = [RngStream(2).uniform() for _ in range(5)]
    assert a != b


def test_single_draws_match_the_underlying_generator_exactly():
    # one generator call per draw must give the values of one array call
    n = 10_000
    rng = RngStream(123)
    ours = np.array([rng.uniform() for _ in range(n)])
    ref = np.random.Generator(np.random.PCG64(123)).random(n)
    assert np.array_equal(ours, ref)


def test_draw_counter_counts_every_draw():
    rng = RngStream(0)
    assert rng.n_draws == 0
    for i in range(1, 5001):
        rng.uniform()
        assert rng.n_draws == i


def test_uniforms_live_in_the_half_open_unit_interval():
    rng = RngStream(9)
    vals = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in vals)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "42", None, True])
def test_invalid_seeds_are_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        RngStream(bad)


def test_seed_bounds_are_inclusive_exclusive():
    assert RngStream(0).seed == 0
    assert RngStream(2**64 - 1).seed == 2**64 - 1


def test_repr_shows_the_seed_and_the_draw_count():
    rng = RngStream(3)
    assert repr(rng) == "RngStream(seed=3, n_draws=0)"
    rng.take(5)
    assert repr(rng) == "RngStream(seed=3, n_draws=5)"


def test_take_returns_a_float64_array_of_n_draws():
    for n in (0, 1, 4096, 5000):
        taken = RngStream(3).take(n)
        assert isinstance(taken, np.ndarray)
        assert taken.dtype == np.float64 and taken.shape == (n,)


def test_take_equals_repeated_uniform_calls():
    n = 5096
    taken = RngStream(123).take(n).tolist()
    single = RngStream(123)
    assert taken == [single.uniform() for _ in range(n)]


def test_take_after_uniform_calls_continues_the_same_stream():
    mixed = RngStream(42)
    head = [mixed.uniform() for _ in range(4000)]
    tail = mixed.take(200)  # draws 4000..4199
    assert tail.dtype == np.float64
    tail = tail.tolist()
    after = mixed.uniform()
    assert head[:10] == list(SEED42_FIRST_TEN)
    single = RngStream(42)
    assert head + tail + [after] == [single.uniform() for _ in range(4201)]
    assert mixed.n_draws == single.n_draws == 4201


def test_take_zero_draws_nothing():
    rng = RngStream(7)
    assert rng.take(0).tolist() == []
    assert rng.n_draws == 0
    assert rng.uniform() == RngStream(7).uniform()
    with pytest.raises(ValueError):
        rng.take(-1)


def test_take_is_the_pcg64_raw_stream_scaled_to_53_bits():
    # numpy pins PCG64's raw stream but not Generator.random's conversion
    # of it; should that ever change, this names the cause
    n = 10**5
    for seed in (0, 1, 42, 2**64 - 1):
        raw = np.random.PCG64(seed).random_raw(n)
        expected = (raw >> np.uint64(11)) * 2.0**-53
        assert RngStream(seed).take(n).tobytes() == expected.tobytes(), f"seed {seed}"


@pytest.mark.parametrize(
    "bad, error",
    [(2.5, ValueError), (True, ValueError), (-1, ValueError), ("3", ValueError), (10**18, MemoryError)],
)
def test_a_failed_take_draws_and_counts_nothing(bad, error):
    rng = RngStream(5)
    rng.take(3)
    with pytest.raises(error, match="take" if error is ValueError else None):
        rng.take(bad)
    assert rng.n_draws == 3
    assert rng.take(4).tolist() == RngStream(5).take(7).tolist()[3:]
    assert rng.n_draws == 7
