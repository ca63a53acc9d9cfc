import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slidecodec.errors import CodecError
from slidecodec.transform import project, unproject, unzigzag, zigzag

from oracles import oracle_project


def patch(values, channels=1):
    return np.asarray(values, dtype=np.uint8).reshape(1, -1, channels)


def test_golden_row_vector():
    z = project(patch([10, 12, 11]))
    assert z.reshape(-1).tolist() == [20, 4, 1]


def test_golden_row_vector_inverse():
    z = patch([20, 4, 1])
    assert unproject(z).reshape(-1).tolist() == [10, 12, 11]


def test_zigzag_bijection_over_all_bytes():
    # single-pixel patches reduce the transform to the zigzag map alone; it
    # must equal the scalar map, byte v holding residual v - 256 for v >= 128
    expect = {s % 256: zigzag(s) for s in range(-128, 128)}
    for c in (1, 3):
        for v in range(256):
            p = np.full((1, 1, c), v, dtype=np.uint8)
            z = project(p)
            assert z[0, 0, 0] == expect[v]
            assert (unproject(z) == p).all()
    assert sorted(expect.values()) == list(range(256))


def strided_views(rng, h, w, c):
    """(name, view) pairs of shape (h, w, c) over fresh random bytes."""
    base = rng.integers(0, 256, (2 * h + 1, 3 * w + 2, c), dtype=np.uint8)
    return [
        ("strided", base[1::2, 2::3]),
        ("reversed", base[::-1, ::-1][:h, :w]),
        ("sliced", base[1 : h + 1, 2 : w + 2]),
        ("column-major", base[:h, :w].transpose(1, 0, 2).copy().transpose(1, 0, 2)),
    ]


@pytest.mark.parametrize("c", [1, 3])
def test_non_contiguous_views_match_contiguous_copies(c):
    rng = np.random.default_rng(15 + c)
    for h, w in [(1, 1), (1, 7), (6, 1), (9, 5), (16, 12)]:
        for name, view in strided_views(rng, h, w, c):
            assert view.shape == (h, w, c), name
            copy = np.ascontiguousarray(view)
            expect = np.array(oracle_project(copy), dtype=np.uint8)
            assert (project(view) == expect).all(), name
            assert (project(view) == project(copy)).all(), name
            assert (unproject(view) == unproject(copy)).all(), name
            assert (project(unproject(view)) == copy).all(), name


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24),
                                  st.sampled_from([1, 3]))))
def test_round_trip_property(p):
    assert (unproject(project(p)) == p).all()


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 9, 1), (7, 1, 1), (5, 4, 3),
                                   (1, 300, 3), (300, 1, 3), (64, 64, 1)])
def test_round_trip_shapes(shape):
    rng = np.random.default_rng(hash(shape) % (2**32))
    p = rng.integers(0, 256, shape, dtype=np.uint8)
    z = project(p)
    assert z.shape == p.shape
    assert (unproject(z) == p).all()


def test_round_trip_randomized():
    rng = np.random.default_rng(11)
    for _ in range(400):
        h, w = rng.integers(1, 40, 2)
        c = int(rng.choice([1, 3]))
        p = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
        assert (unproject(project(p)) == p).all()


def test_inverse_in_residual_direction():
    rng = np.random.default_rng(12)
    z = rng.integers(0, 256, (13, 9, 3), dtype=np.uint8)
    assert (project(unproject(z)) == z).all()


def test_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        h, w = rng.integers(1, 12, 2)
        c = int(rng.choice([1, 3]))
        p = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
        expect = np.array(oracle_project(p), dtype=np.uint8)
        assert (project(p) == expect).all()


def test_channel_tie_uses_first_channel():
    # identical channels leave the secondary residuals all zero
    rng = np.random.default_rng(14)
    mono = rng.integers(0, 256, (6, 6, 1), dtype=np.uint8)
    p = np.repeat(mono, 3, axis=2)
    z = project(p)
    assert not z[:, :, 1].any()
    assert not z[:, :, 2].any()


def test_single_channel_has_no_tie():
    p = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
    z3 = project(np.repeat(p, 3, axis=2))
    z1 = project(p)
    assert (z3[:, :, 0] == z1[:, :, 0]).all()


@pytest.mark.parametrize("bad", [
    np.zeros((4, 4), dtype=np.uint8),
    np.zeros((4, 4, 2), dtype=np.uint8),
    np.zeros((4, 4, 1), dtype=np.int32),
])
def test_rejects_bad_layouts(bad):
    with pytest.raises(CodecError):
        project(bad)


def test_zigzag_scalar_helpers():
    assert [zigzag(s) for s in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    assert all(unzigzag(zigzag(s)) == s for s in range(-128, 128))
    with pytest.raises(ValueError):
        zigzag(128)
    with pytest.raises(ValueError):
        unzigzag(256)
