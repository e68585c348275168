"""Fixed-N bosonic occupation basis on L sites.

States are enumerated in lexicographically decreasing order of the
occupation vector, and indices are recovered through the combinatorial
number system, so ranking costs O(L*N) integer work and needs no hash
table.  The basis dimension is C(N+L-1, L-1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

DEFAULT_DIM_CAP = 200_000


def dimension(L: int, N: int) -> int:
    """Number of ways to place N bosons on L sites."""
    return math.comb(N + L - 1, L - 1)


def _binomial_table(rows: int, cols: int) -> np.ndarray:
    table = np.zeros((rows, cols), dtype=np.int64)
    table[:, 0] = 1
    for n in range(1, rows):
        kmax = min(n, cols - 1)
        table[n, 1:kmax + 1] = table[n - 1, 1:kmax + 1] + table[n - 1, 0:kmax]
    return table


class FockBasis:
    """Immutable ordered basis for N bosons on L sites."""

    def __init__(self, L: int, N: int, occ: np.ndarray, binom: np.ndarray):
        self.L = L
        self.N = N
        self.occ = occ
        self.occ.flags.writeable = False
        self._binom = binom

    def __len__(self) -> int:
        return self.occ.shape[0]

    def rank_rows(self, occ: np.ndarray) -> np.ndarray:
        """Vectorized rank of a (n, L) block of valid occupation vectors."""
        remaining = self.N - np.cumsum(occ, axis=1) + occ
        s = self.L - 1 - np.arange(self.L - 1)
        first = remaining[:, :-1] - occ[:, :-1] - 1 + s
        # skipped = -1 maps to C(s-1, s) = 0, so no masking is needed
        return self._binom[first, s].sum(axis=1)


def enumerate_basis(L: int, N: int) -> FockBasis:
    """Build the full fixed-N basis in lexicographically decreasing order."""
    if L < 1 or N < 0:
        raise DomainError(f"need L >= 1 and N >= 0, got L={L}, N={N}")
    dim = dimension(L, N)
    if dim > DEFAULT_DIM_CAP:
        raise DomainError(f"basis of (L={L}, N={N}) has dimension {dim}, "
                          f"above the cap {DEFAULT_DIM_CAP}")
    occ = np.zeros((dim, L), dtype=np.int64)
    row = np.zeros(L, dtype=np.int64)
    row[0] = N
    for i in range(dim):
        occ[i] = row
        j = L - 2
        while j >= 0 and row[j] == 0:
            j -= 1
        if j < 0:
            break
        carry = int(row[j + 1:].sum()) + 1
        row[j] -= 1
        row[j + 1:] = 0
        row[j + 1] = carry
    binom = _binomial_table(N + L, max(L, 2))
    return FockBasis(L, N, occ, binom)
