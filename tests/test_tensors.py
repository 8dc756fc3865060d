import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cumulyap.tensors import (
    SymmetricTensor,
    _index_rank,
    canonical_index,
    slot_replacements,
    unique_indices,
)
from oracles import (
    index_rank_by_code,
    kron_sum_matrix,
    n_mode_product,
    slot_replacements_loop,
    vec,
)


def test_unique_indices_enumeration():
    idx = unique_indices(3, 2)
    assert idx == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert len(unique_indices(4, 3)) == math.comb(4 + 3 - 1, 3)
    assert all(tuple(sorted(i)) == i for i in unique_indices(5, 4))
    assert list(unique_indices(5, 4)) == sorted(unique_indices(5, 4))


def test_unique_indices_validation():
    with pytest.raises(ValueError):
        unique_indices(0, 2)
    with pytest.raises(ValueError):
        unique_indices(3, 0)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_canonical_index_is_sorted_and_permutation_invariant(index):
    canon = canonical_index(index)
    assert canon == tuple(sorted(index))
    assert canonical_index(reversed(index)) == canon


@pytest.mark.parametrize("d, j", [(1, 4), (2, 64), (3, 41), (5, 3), (10, 5)])
def test_index_rank_counts_earlier_indices(d, j):
    # at (2, 64) and (3, 41) the base-d codes pass int64
    index = np.array(unique_indices(d, j))
    assert np.array_equal(_index_rank(d, index), np.arange(len(index)))
    rows = np.random.default_rng(j).choice(len(index), (4, 5))
    assert np.array_equal(_index_rank(d, index[rows]), index_rank_by_code(d, index[rows]))


def test_slot_replacements_table():
    # at (2, 64) the base-d codes of the replaced indices would pass int64
    for d, k in [(1, 1), (1, 2), (2, 3), (3, 3), (3, 4), (5, 2), (4, 6), (2, 9), (2, 64)]:
        table = slot_replacements(d, k)
        assert table.shape == (len(unique_indices(d, k)) * k * d, 4)
        assert table.dtype == np.intp
        assert not table.flags.writeable
        assert np.array_equal(table, slot_replacements_loop(d, k))


def test_n_mode_product_matches_einsum():
    rng = np.random.default_rng(0)
    T = rng.normal(size=(3, 3, 3))
    M = rng.normal(size=(3, 3))
    assert np.allclose(n_mode_product(T, M, 0), np.einsum("ja,abc->jbc", M, T))
    assert np.allclose(n_mode_product(T, M, 1), np.einsum("jb,abc->ajc", M, T))
    assert np.allclose(n_mode_product(T, M, 2), np.einsum("jc,abc->abj", M, T))
    with pytest.raises(ValueError):
        n_mode_product(T, M, 3)


def test_vec_first_index_fastest():
    A = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(vec(A), np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0]))


def test_kron_sum_matrix_applies_mode_products():
    rng = np.random.default_rng(1)
    d, k = 3, 3
    M = rng.normal(size=(d, d))
    T = rng.normal(size=(d,) * k)  # deliberately not symmetric
    expected = sum(n_mode_product(T, M, mode) for mode in range(k))
    assert np.allclose(kron_sum_matrix(M, k) @ vec(T), vec(expected))


def test_kron_sum_matrix_eigenvalues_are_sums():
    M = np.array([[1.0, 2.0], [0.0, 4.0]])
    eigs = np.sort(np.linalg.eigvals(kron_sum_matrix(M, 2)))
    assert np.allclose(eigs, [2.0, 5.0, 5.0, 8.0])


def test_kron_sum_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        kron_sum_matrix(np.ones((2, 3)), 2)


def test_symmetric_tensor_get_set_any_permutation():
    t = SymmetricTensor(3, 3)
    t[2, 0, 1] = 5.0
    assert t[0, 1, 2] == 5.0
    assert t[1, 2, 0] == 5.0
    t[0, 0, 2] = -1.0
    assert t[2, 0, 0] == -1.0
    with pytest.raises(IndexError):
        t[0, 0, 3]


def test_symmetric_tensor_value_validation():
    with pytest.raises(ValueError):
        SymmetricTensor(2, 2, np.zeros(4))  # three unique entries for d=2, k=2


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_dense_round_trip(d, k, data):
    size = len(unique_indices(d, k))
    values = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    t = SymmetricTensor(d, k, np.array(values))
    dense = t.to_dense()
    # dense tensor is symmetric in all axis permutations
    for perm in itertools.permutations(range(k)):
        assert np.array_equal(dense, np.transpose(dense, perm))
    back = SymmetricTensor.from_dense(dense)
    assert np.array_equal(back.values, t.values)


def test_from_dense_rejects_asymmetry():
    arr = np.array([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        SymmetricTensor.from_dense(arr)


def test_identity_and_from_diagonal():
    t = SymmetricTensor.identity(3, 3)
    assert t[1, 1, 1] == 1.0
    assert t[0, 1, 1] == 0.0
    s = SymmetricTensor.from_diagonal([2.0, 3.0], 4)
    assert s[1, 1, 1, 1] == 3.0
    assert s[0, 0, 0, 1] == 0.0


def test_vec_unique_round_trip():
    t = SymmetricTensor(2, 3, [1.0, 2.0, 3.0, 4.0])
    assert t[0, 1, 1] == 3.0
    back = SymmetricTensor(2, 3, t.vec_unique())
    assert np.array_equal(back.vec_unique(), t.vec_unique())

