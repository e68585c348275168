import pytest

from mottscope.config import LatticeSpec
from mottscope.fock import enumerate_basis
from mottscope.spectrum import build_hamiltonian, diagonalize, ground_matrix_elements


@pytest.fixture(scope="session")
def sector_factory():
    """Memoized (lattice, basis, channel table) per sector.

    Diagonalizations dominate the suite runtime; sharing them across test
    modules keeps the whole run tractable without hidden state, since every
    returned object is read-only.  Like a scan, the memo keeps the channel
    table, weights included, and drops the solved blocks' eigenvectors.
    """
    cache = {}

    def get(L, nu, u_over_j):
        key = (L, nu, float(u_over_j))
        if key not in cache:
            lattice = LatticeSpec(L=L, nu=nu)
            basis = enumerate_basis(L, lattice.N)
            ham = build_hamiltonian(basis, float(u_over_j))
            cache[key] = (lattice, basis, ground_matrix_elements(
                diagonalize(ham), ham.orbits, basis))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def mott_anchor(sector_factory):
    """L=8, nu=1, U/J=10: the 6435-state sector shared by the slow checks."""
    return sector_factory(8, 1, 10.0)
