import math

import numpy as np
import pytest

from mottscope.errors import DomainError
from mottscope.fock import dimension, enumerate_basis

from oracles import boson_states


@pytest.mark.parametrize("L,N,expected", [
    (1, 0, 1), (1, 5, 1), (2, 2, 3), (3, 3, 10), (4, 4, 35),
    (5, 5, 126), (6, 6, 462), (8, 8, 6435), (10, 10, 92378),
    (4, 8, 165), (8, 16, 245157),
])
def test_dimension_values(L, N, expected):
    assert dimension(L, N) == expected
    assert dimension(L, N) == math.comb(N + L - 1, L - 1)


@pytest.mark.parametrize("L,N", [(2, 2), (3, 3), (4, 4), (3, 7), (5, 2), (1, 4)])
def test_enumeration_is_complete_and_ordered(L, N):
    basis = enumerate_basis(L, N)
    assert len(basis) == dimension(L, N)
    assert basis.occ.shape == (len(basis), L)
    assert (basis.occ >= 0).all()
    assert (basis.occ.sum(axis=1) == N).all()
    # lexicographically strictly decreasing rows
    for i in range(len(basis) - 1):
        assert tuple(basis.occ[i]) > tuple(basis.occ[i + 1])
    # same set of states as the recursive oracle
    assert set(map(tuple, basis.occ)) == set(boson_states(L, N))


def test_first_and_last_states():
    basis = enumerate_basis(4, 4)
    assert list(basis.occ[0]) == [4, 0, 0, 0]
    assert list(basis.occ[len(basis) - 1]) == [0, 0, 0, 4]


@pytest.mark.parametrize("L,N", [(2, 2), (4, 4), (3, 7), (6, 3)])
def test_rank_unrank_bijection(L, N):
    # ranking a shuffled block gives back the shuffle, and indexing the
    # rows with those ranks (unranking) gives back the block
    basis = enumerate_basis(L, N)
    perm = np.random.default_rng(L * 100 + N).permutation(len(basis))
    ranks = basis.rank_rows(basis.occ[perm])
    assert (ranks == perm).all()
    assert (basis.occ[ranks] == basis.occ[perm]).all()


def test_rank_rows_matches_scalar_rank():
    basis = enumerate_basis(5, 5)
    ranks = basis.rank_rows(basis.occ)
    assert (ranks == np.arange(len(basis))).all()
    index = {row: i for i, row in enumerate(map(tuple, basis.occ.tolist()))}
    shuffled = basis.occ[::-3].copy()
    assert (basis.rank_rows(shuffled)
            == [index[tuple(row)] for row in shuffled.tolist()]).all()


def test_dimension_cap_enforced():
    with pytest.raises(DomainError, match="above the cap"):
        enumerate_basis(12, 12)           # 1352078 states, above the cap


def test_enumerate_rejects_bad_shape():
    with pytest.raises(DomainError, match="need L >= 1 and N >= 0"):
        enumerate_basis(0, 3)
    with pytest.raises(DomainError, match="need L >= 1 and N >= 0"):
        enumerate_basis(3, -1)


def test_basis_rows_are_read_only():
    basis = enumerate_basis(3, 3)
    with pytest.raises(ValueError):
        basis.occ[0, 0] = 7
