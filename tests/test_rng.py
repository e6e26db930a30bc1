import numpy as np
import pytest

from spikecl.errors import ContractViolation
from spikecl.rng import RngStream, fnv1a64, mix64

from oracles import seed_base

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_ULP_BELOW = np.nextafter(1.0, 0.0)


def _raw_oracle(stream, n):
    """The out-of-place splitmix64 block: counters (c+1 .. c+n) of ``stream``."""
    start = stream._counter + 1
    idx = np.arange(start, start + n, dtype=np.uint64)
    z = np.uint64(seed_base(stream)) + idx * _GAMMA
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bernoulli_oracle(stream, p, shape):
    """The float compare ``u < p`` on u = (x >> 11) * 2^-53; advances ``stream``."""
    n = int(np.prod(shape)) if shape else 1
    u = (_raw_oracle(stream, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    stream._counter += n
    return (u.reshape(shape) < p).astype(np.float64)


def test_same_seed_same_sequence():
    a = RngStream(123)
    b = RngStream(123)
    assert np.array_equal(a.uniform((100,)), b.uniform((100,)))
    assert np.array_equal(a.normal((51,)), b.normal((51,)))
    assert np.array_equal(a.bernoulli(0.4, (64,)), b.bernoulli(0.4, (64,)))


def test_known_first_word():
    # splitmix64 recurrence pinned: mix(mix(0) + GAMMA) for seed 0, draw 1
    s = RngStream(0)
    u = s.uniform((1,))[0]
    base = mix64(0)
    expected = mix64((base + 0x9E3779B97F4A7C15) & (2**64 - 1))
    assert u == (expected >> 11) * 2.0**-53


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).uniform((32,)), RngStream(2).uniform((32,)))


def test_draws_advance_state():
    s = RngStream(9)
    first = s.uniform((8,))
    second = s.uniform((8,))
    assert not np.array_equal(first, second)


def test_uniform_range():
    u = RngStream(7).uniform((10000,))
    assert u.min() >= 0.0 and u.max() < 1.0


def test_bernoulli_edges():
    s = RngStream(3)
    assert (s.bernoulli(0.0, (500,)) == 0.0).all()
    assert (s.bernoulli(1.0, (500,)) == 1.0).all()
    with pytest.raises(ContractViolation):
        s.bernoulli(1.5, (2,))
    with pytest.raises(ContractViolation):
        s.bernoulli(-0.1, (2,))


def test_bernoulli_elementwise_p():
    p = np.array([0.0, 1.0, 0.0])
    draws = RngStream(4).bernoulli(np.tile(p, (50, 1)), (50, 3))
    assert (draws[:, 0] == 0).all() and (draws[:, 1] == 1).all()


def test_fork_keyed_and_independent():
    s = RngStream(42)
    a1 = s.fork("weights").uniform((16,))
    a2 = s.fork("weights").uniform((16,))
    b = s.fork("shuffle").uniform((16,))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_fork_does_not_advance_parent():
    s = RngStream(42)
    s.fork("x")
    t = RngStream(42)
    assert np.array_equal(s.uniform((8,)), t.uniform((8,)))


def test_permutation_complete():
    p = RngStream(11).permutation(257)
    assert sorted(p.tolist()) == list(range(257))


def test_normal_moments():
    z = RngStream(13).normal((200000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_fnv_stable():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_raw_block_matches_out_of_place_oracle():
    s = RngStream(2024)
    s.uniform((5,))
    expected = _raw_oracle(s, 1000)
    assert s._raw(1000).tobytes() == expected.tobytes()
    assert s._counter == 1005


def test_uniform_matches_float_oracle():
    s, ref = RngStream(31), RngStream(31)
    u = (_raw_oracle(ref, 600) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert s.uniform((20, 30)).tobytes() == u.reshape(20, 30).tobytes()


def _boundary_p(stream, shape):
    """p at exactly k * 2^-53 and one ulp either side, where k is the word
    the next draw of ``stream`` compares against at that position; the
    other positions hold the fixed edges 0, 2^-53, 1/2, 1 - 2^-53 and 1."""
    n = int(np.prod(shape))
    k = (_raw_oracle(stream, n) >> np.uint64(11)).astype(np.float64).reshape(shape)
    exact = k * 2.0**-53
    candidates = [
        exact,
        np.minimum(np.nextafter(exact, 2.0), 1.0),
        np.maximum(np.nextafter(exact, -1.0), 0.0),
        np.zeros(shape),
        np.full(shape, 2.0**-53),
        np.full(shape, 0.5),
        np.full(shape, _ULP_BELOW),
        np.ones(shape),
    ]
    pick = np.arange(n).reshape(shape) % len(candidates)
    return np.choose(pick, candidates)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bernoulli_matches_float_compare_at_boundaries(seed):
    shape = (4, 10, 33)
    s, ref = RngStream(seed), RngStream(seed)
    p_full = _boundary_p(s, shape)
    assert s.bernoulli(p_full, shape).tobytes() == _bernoulli_oracle(ref, p_full, shape).tobytes()
    # (B, 1, n), broadcast over the T axis; boundaries sit at t = 0
    p_row = _boundary_p(s, shape)[:, :1, :]
    assert s.bernoulli(p_row, shape).tobytes() == _bernoulli_oracle(ref, p_row, shape).tobytes()
    for p in (0.0, 2.0**-53, 0.5, _ULP_BELOW, 1.0, 0.3):
        assert s.bernoulli(p, (7, 5)).tobytes() == _bernoulli_oracle(ref, p, (7, 5)).tobytes()
    assert s._counter == ref._counter


def test_bernoulli_rejects_nan():
    with pytest.raises(ContractViolation):
        RngStream(3).bernoulli(float("nan"), (3,))
    with pytest.raises(ContractViolation):
        RngStream(3).bernoulli(np.array([0.5, np.nan]), (4, 2))
