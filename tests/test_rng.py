import numpy as np
import pytest

from latentreplay.rng import SeededRng


def _splitmix64_reference(seed, n):
    """Independent scalar splitmix64 (pure Python ints)."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_matches_scalar_splitmix64_reference():
    for seed in (0, 1, 42, 2**63 + 11):
        mine = SeededRng(seed).next_u64(32).tolist()
        assert mine == _splitmix64_reference(seed, 32)


def test_equal_seeds_equal_streams_10k():
    a, b = SeededRng(987), SeededRng(987)
    assert np.array_equal(a.next_u64(10_000), b.next_u64(10_000))
    a, b = SeededRng(987), SeededRng(987)
    assert np.array_equal(a.uniform((10_000,)), b.uniform((10_000,)))
    a, b = SeededRng(987), SeededRng(987)
    assert np.array_equal(a.normal((10_000,)), b.normal((10_000,)))


def test_different_seeds_differ():
    assert not np.array_equal(SeededRng(1).next_u64(16), SeededRng(2).next_u64(16))


def test_stream_is_incremental_not_repeating():
    r = SeededRng(5)
    first = r.next_u64(8)
    second = r.next_u64(8)
    assert not np.array_equal(first, second)


def test_uniform_range_and_moments():
    u = SeededRng(7).uniform((50_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = SeededRng(8).normal((50_000,), dtype=np.float64)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_randint_bounds():
    v = SeededRng(9).randint(3, 9, 1000)
    assert v.min() >= 3 and v.max() < 9
    assert set(np.unique(v)) == set(range(3, 9))


def test_choice_without_replacement():
    r = SeededRng(11)
    idx = r.choice(20, 8)
    assert len(idx) == 8
    assert len(set(idx.tolist())) == 8
    assert idx.min() >= 0 and idx.max() < 20


def test_choice_uniformity_rough():
    counts = np.zeros(10)
    r = SeededRng(12)
    for _ in range(2000):
        counts[r.choice(10, 3)] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.1) < 0.02)


def test_choice_too_many_raises():
    import pytest
    with pytest.raises(ValueError):
        SeededRng(13).choice(5, 6)


def test_negative_counts_raise_and_leave_the_stream():
    r = SeededRng(15)
    r.next_u64(3)
    with pytest.raises(ValueError):
        r.next_u64(-2)
    with pytest.raises(ValueError):
        r.choice(5, -1)
    with pytest.raises(ValueError):
        r.choice(5, -1, replace=True)
    assert np.array_equal(r.next_u64(2), SeededRng(15).next_u64(5)[3:])


def test_permutation_covers_range():
    p = SeededRng(14).permutation(31)
    assert sorted(p.tolist()) == list(range(31))


def test_spawn_streams_are_independent_and_deterministic():
    r = SeededRng(77)
    a = r.spawn(1)
    b = r.spawn(2)
    assert a.seed != b.seed != r.seed
    assert SeededRng(77).spawn(1).seed == a.seed
    assert not np.array_equal(a.next_u64(16), b.next_u64(16))


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3), (1, 3, 5), (1, 16, 16)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normal_rows_are_consecutive_normal_draws(shape, dtype):
    rows = SeededRng(21).normal_rows(5, shape, dtype)
    r = SeededRng(21)
    single = np.stack([r.normal(shape, dtype) for _ in range(5)])
    assert rows.dtype == dtype and rows.shape == (5,) + shape
    assert rows.tobytes() == single.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 47, 48, 1500])
def test_choice_is_the_stable_key_sort_prefix(n):
    for seed in (0, 31, 2024):
        keys = SeededRng(seed).next_u64(n + 1)
        order = np.argsort(keys[:n], kind="stable")
        for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            r = SeededRng(seed)
            idx = r.choice(n, k)
            assert idx.dtype == order.dtype
            assert idx.tolist() == order[:k].tolist()
            # exactly n integers consumed, whatever k is
            assert r.next_u64(1)[0] == keys[n]


@pytest.mark.parametrize("rows", [1, 3, 40])
@pytest.mark.parametrize("n", [1, 7, 48, 1500])
def test_choice_rows_are_consecutive_choice_draws(n, rows):
    cases = [(k, False) for k in sorted({0, 1, n // 3, n - 1, n})]
    cases += [(1, True), (n + 5, True)]
    for k, replace in cases:
        batched, single = SeededRng(2024), SeededRng(2024)
        idx = batched.choice_rows(rows, n, k, replace)
        ref = np.stack([single.choice(n, k, replace) for _ in range(rows)])
        assert idx.shape == (rows, k) and idx.dtype == ref.dtype
        assert np.array_equal(idx, ref), (k, replace)
        # the stream continues where the consecutive draws leave it
        assert batched.next_u64(1)[0] == single.next_u64(1)[0]
