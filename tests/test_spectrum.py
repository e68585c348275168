import math
import os

import numpy as np
import pytest

from mottscope.config import InteractionSpec, LatticeSpec
from mottscope.fock import enumerate_basis
from mottscope.spectrum import (build_hamiltonian, cache_key, diagonalize,
                                ground_matrix_elements, lattice_bonds,
                                load_spectrum, save_spectrum,
                                spectrum_cache_path, translation_orbits)

from oracles import (bloch_block, boson_states, dense_hamiltonian,
                     frame_unitary, ground_vector)


def build(L, nu, u):
    lattice = LatticeSpec(L=L, nu=nu)
    basis = enumerate_basis(L, lattice.N)
    ham = build_hamiltonian(basis, InteractionSpec(U_over_J=u), lattice)
    return lattice, basis, ham


def test_lattice_bonds():
    assert lattice_bonds(2) == [(0, 1)]
    assert lattice_bonds(3) == [(0, 1), (0, 2), (1, 2)]
    assert lattice_bonds(6) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert len(lattice_bonds(17)) == 17


@pytest.mark.parametrize("L,nu,u", [(2, 1, 3.0), (3, 1, 4.5), (4, 1, 0.0),
                                    (3, 2, 7.0), (4, 2, 12.0)])
def test_hamiltonian_matches_independent_build(L, nu, u):
    _, basis, ham = build(L, nu, u)
    dense = ham.to_dense()
    assert np.array_equal(dense, dense.T)
    oracle = dense_hamiltonian(boson_states(L, nu * L), u)
    # row orders differ; compare the full sorted spectra instead
    ours = np.linalg.eigvalsh(dense)
    theirs = np.linalg.eigvalsh(oracle)
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-10)


def test_two_site_closed_form():
    # single bond at L=2: eigenvalues u and (u +- sqrt(u^2 + 16)) / 2
    for u in (3.0, 7.0, 0.0):
        _, _, ham = build(2, 1, u)
        got = np.sort(np.linalg.eigvalsh(ham.to_dense()))
        expected = np.sort([u, 0.5 * (u + math.sqrt(u * u + 16)),
                            0.5 * (u - math.sqrt(u * u + 16))])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_free_hopping_ground_energy():
    # ring with L >= 3 at U=0: E0 = -2 J N; the 2-site chain has one bond only
    for L in (3, 4, 5):
        _, _, ham = build(L, 1, 0.0)
        e0 = np.linalg.eigvalsh(ham.to_dense())[0]
        assert e0 == pytest.approx(-2.0 * L, rel=1e-12)
    _, _, ham2 = build(2, 1, 0.0)
    assert np.linalg.eigvalsh(ham2.to_dense())[0] == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.parametrize("L,N", [(2, 2), (3, 3), (4, 4), (4, 8), (6, 6), (5, 0)])
def test_translation_orbits(L, N):
    basis = enumerate_basis(L, N)
    orb = translation_orbits(basis)
    reps = np.flatnonzero(orb.shift == 0)
    assert np.array_equal(orb.index[reps], np.arange(reps.size))
    for i, row in enumerate(basis.occ):
        rep = basis.occ[reps[orb.index[i]]]
        assert np.array_equal(np.roll(rep, orb.shift[i]), row)
        # oracle: the period is the number of distinct rotations
        rotations = {tuple(np.roll(row, s)) for s in range(L)}
        assert orb.size[orb.index[i]] == len(rotations)
    assert orb.size.sum() == len(basis)


@pytest.mark.parametrize("L,nu,u", [(2, 1, 3.0), (4, 1, 6.0), (6, 1, 2.0),
                                    (3, 2, 7.0), (4, 2, 0.0)])
def test_bloch_blocks_are_hermitian_and_complete(L, nu, u):
    _, _, ham = build(L, nu, u)
    sizes = 0
    eigs = []
    for k in range(L):
        allowed, block = bloch_block(ham, k)
        assert np.abs(block - block.conj().T).max() < 1e-13
        # k = 0 and K = pi blocks are real, the others complex
        assert (np.abs(block.imag).max() < 1e-13) == (2 * k % L == 0)
        sizes += allowed.size
        eigs.append(np.linalg.eigvalsh(block))
    assert sizes == ham.dim
    np.testing.assert_allclose(np.sort(np.concatenate(eigs)),
                               np.linalg.eigvalsh(ham.to_dense()),
                               rtol=0, atol=1e-10)
    # reflection: K and -K blocks share their spectrum
    for k in range(1, L):
        np.testing.assert_allclose(eigs[k], eigs[L - k], rtol=0, atol=1e-10)
    # the real frame blocks that diagonalize solves have the same spectra
    for k in range(L // 2 + 1):
        _, real = ham.frame_block(k)
        assert real.dtype == np.float64
        np.testing.assert_allclose(np.linalg.eigvalsh(real), eigs[k],
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("L,nu", [(L, 1) for L in range(2, 9)]
                         + [(L, 2) for L in range(2, 7)])
def test_frames_make_every_block_real(L, nu):
    _, _, ham = build(L, nu, 7.0)
    for k in range(L // 2 + 1):
        frame, real = ham.frame_block(k)
        allowed, block = bloch_block(ham, k)
        assert np.array_equal(frame.orbits, allowed)
        u = frame_unitary(frame)
        n = allowed.size
        assert np.abs((u.conj().T @ u).toarray() - np.eye(n)).max() < 1e-14
        scale = np.abs(block).max()
        moved = u.conj().T @ (u.T @ block.T).T      # U^H B U, U sparse
        # the Bloch block in the frame is real, and it is the assembled block
        assert np.abs(moved.imag).max() <= 1e-12 * scale
        assert np.abs(moved.real - real).max() <= 1e-12 * scale
        assert np.abs(real - real.T).max() <= 1e-12 * scale
        if 2 * k % L == 0:
            # reflection parity: the even and odd halves do not couple
            assert np.abs(real[:frame.even, frame.even:]).max(initial=0.0) \
                <= 1e-12 * scale


@pytest.mark.parametrize("L,nu", [(L, 1) for L in range(2, 8)]
                         + [(L, 2) for L in range(2, 6)])
def test_block_spectra_cover_the_sector(L, nu):
    _, basis, ham = build(L, nu, 7.0)
    spec = diagonalize(ham)
    np.testing.assert_allclose(spec.energies_J,
                               np.linalg.eigvalsh(ham.to_dense()),
                               rtol=0, atol=1e-10)
    assert spec.ground_index == 0 and spec.momentum[0] == 0
    weights = ground_matrix_elements(spec, basis)
    assert weights[0] == pytest.approx(nu ** 2, abs=1e-12)
    for block in spec.blocks:
        m = block.vectors.shape[1]
        if 2 * block.k % L == 0:
            assert m == block.frame.even
            # odd halves: eigenvalues only, and weight exactly 0
            assert (weights[block.slots[:, m:]] == 0.0).all()
        else:
            assert m == block.frame.orbits.size


def test_deep_mott_ground_state():
    _, basis, ham = build(4, 1, 1e6)
    spec = diagonalize(ham)
    mott = ham.orbits.index[basis.rank_rows(np.array([[1, 1, 1, 1]]))[0]]
    assert spec.momentum[spec.ground_index] == 0
    zero = spec.blocks[0]
    ground = zero.frame.bloch_amplitudes(zero.vectors[:, 0])
    assert abs(ground[mott]) > 1.0 - 1e-9


def test_diagonalize_properties():
    _, _, ham = build(4, 1, 6.0)
    spec = diagonalize(ham)
    assert (np.diff(spec.energies_J) >= 0).all()
    assert spec.ground_index == 0
    # the table covers the whole sector, with the dense spectrum
    np.testing.assert_allclose(spec.energies_J,
                               np.linalg.eigvalsh(ham.to_dense()),
                               rtol=0, atol=1e-10)
    # every block: residuals, orthonormality, table rows at its momenta
    assert [b.k for b in spec.blocks] == [0, 1, 2]
    for block in spec.blocks:
        frame, matrix = ham.frame_block(block.k)
        assert np.array_equal(block.frame.orbits, frame.orbits)
        # vectors span the even half at K = 0 and pi, the whole block otherwise
        m = block.vectors.shape[0]
        energies = spec.energies_J[block.slots[0, :m]]
        resid = matrix[:m, :m] @ block.vectors - block.vectors * energies
        assert np.abs(resid).max() < 1e-10
        gram = block.vectors.T @ block.vectors
        assert np.abs(gram - np.eye(m)).max() < 1e-12
        np.testing.assert_allclose(spec.energies_J[block.slots[0, m:]],
                                   np.linalg.eigvalsh(matrix[m:, m:]),
                                   rtol=0, atol=1e-10)
        partners = sorted({block.k, -block.k % 4})
        for row, k in zip(block.slots, partners):
            assert (spec.momentum[row] == k).all()
            assert np.array_equal(spec.energies_J[row], spec.energies_J[block.slots[0]])
    # E_r energies are exactly the J-unit energies times the scale
    assert np.array_equal(spec.energies, spec.energies_J * 6.5e-3)
    with pytest.raises(ValueError):
        spec.energies[0] = 0.0
    table = spec.channel_table()
    assert table.blocks == () and table.orbits is None
    assert np.array_equal(table.momentum, spec.momentum)


def test_ground_matrix_elements_sum_rules():
    for L, nu, u in [(3, 1, 5.0), (4, 1, 6.0), (5, 1, 0.0), (3, 2, 5.0),
                     (4, 2, 30.0)]:
        _, basis, ham = build(L, nu, u)
        spec = diagonalize(ham)
        w = ground_matrix_elements(spec, basis)
        assert w.shape == (len(basis),)
        # ground weight: uniform density nu on a ring
        assert w[0] == pytest.approx(nu ** 2, abs=1e-12)
        # completeness: sum_n w_n = <0|n_0^2|0>
        states = boson_states(L, nu * L)
        _, gs = ground_vector(states, u)
        occ = np.array(states, dtype=float)
        assert w.sum() == pytest.approx(((gs * occ[:, 0]) ** 2).sum(), abs=1e-10)
        # <n|N|0> = N delta_n0, so excited K = 0 states carry no weight
        excited_k0 = (spec.momentum == 0) & (np.arange(w.size) != 0)
        assert np.abs(w[excited_k0]).max() < 1e-12


def test_ground_matrix_elements_completeness():
    # sum_n w_n e^{-i K_n (j - j')} must equal <0| n_j n_j' |0>
    lattice, basis, ham = build(3, 2, 5.0)
    spec = diagonalize(ham)
    w = ground_matrix_elements(spec, basis)
    K = 2.0 * math.pi * spec.momentum / 3
    sep = np.subtract.outer(np.arange(3), np.arange(3))
    corr = (w[:, None, None] * np.exp(-1j * K[:, None, None] * sep)).sum(axis=0)
    states = boson_states(3, 6)
    _, gs = ground_vector(states, 5.0)
    occ = np.array(states, dtype=float)
    corr_oracle = (occ * (gs ** 2)[:, None]).T @ occ
    np.testing.assert_allclose(corr, corr_oracle, rtol=0, atol=1e-10)


def saved_table(tmp_path, L=3, N=3, u=5.0):
    lattice, basis, ham = build(L, N // L, u)
    spec = diagonalize(ham)
    weights = ground_matrix_elements(spec, basis)
    key = cache_key(u)
    path = spectrum_cache_path(str(tmp_path), L, N, key)
    save_spectrum(path, L, N, key, spec, weights)
    return path, spec, weights


def test_cache_roundtrip_is_bitwise(tmp_path):
    path, spec, weights = saved_table(tmp_path)
    key = cache_key(5.0)
    assert key == "5.00000000000e+00"
    assert path.endswith("L3_N3_U5.00000000000e+00.spec")
    L, N, key2, loaded, loaded_w = load_spectrum(path, 6.5e-3)
    assert (L, N, key2) == (3, 3, key)
    assert np.array_equal(loaded.energies_J, spec.energies_J)
    assert np.array_equal(loaded.momentum, spec.momentum)
    assert np.array_equal(loaded_w, weights)
    assert np.array_equal(loaded.energies, spec.energies)
    assert loaded.blocks == ()
    # a different energy scale only rescales the E_r view
    _, _, _, rescaled, _ = load_spectrum(path, 1.0)
    assert np.array_equal(rescaled.energies, spec.energies_J)
    # O(dim) numbers: magic, header, key, three columns, checksum
    assert os.path.getsize(path) == 8 + 20 + len(key) + 20 * 10 + 4


def test_cache_rejects_damaged_files(tmp_path):
    path, _, _ = saved_table(tmp_path)
    raw = open(path, "rb").read()
    open(path, "wb").write(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ValueError, match="not a spectrum cache file"):
        load_spectrum(path, 6.5e-3)
    # the previous format is not read, so its entries get recomputed
    open(path, "wb").write(b"MWSPEC01" + raw[8:])
    with pytest.raises(ValueError, match="not a spectrum cache file"):
        load_spectrum(path, 6.5e-3)
    for cut in (4, 20, len(raw) // 2, len(raw) - 8, len(raw) - 1):
        open(path, "wb").write(raw[:cut])
        with pytest.raises(ValueError):
            load_spectrum(path, 6.5e-3)
    open(path, "wb").write(raw + b"\0")
    with pytest.raises(ValueError, match="corrupt"):
        load_spectrum(path, 6.5e-3)


def test_cache_checksum_catches_every_flipped_bit(tmp_path):
    path, _, _ = saved_table(tmp_path)
    raw = bytearray(open(path, "rb").read())
    for pos in range(8, len(raw)):
        for bit in (0, 7):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            open(path, "wb").write(flipped)
            with pytest.raises(ValueError, match="corrupt"):
                load_spectrum(path, 6.5e-3)


def test_cache_key_distinguishes_nearby_couplings():
    assert cache_key(10.0) != cache_key(10.0 + 1e-9)
    assert cache_key(10.0) == cache_key(10.0 + 1e-13)
