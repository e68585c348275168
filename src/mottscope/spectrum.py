"""Hamiltonian assembly and momentum-resolved exact diagonalization.

The matrix is assembled in units of J, where it depends on (L, N, U/J)
only, and the channel table keeps its energies in that one unit; a cross
section forms recoil-unit energies by multiplying with J_Er.  On the
ring, translation by one site commutes with the Hamiltonian, so the fixed-N
sector splits into L Bloch blocks of lattice momentum K = 2 pi k / L.  Each
block is solved completely, because the scattering sums run over the whole
excitation spectrum.  Reflection R (site j -> -j) maps K onto -K with the
same spectrum and the same scattering weights, so only the blocks
0 <= k <= L/2 are solved.

Every block is solved as a real symmetric matrix.  The antiunitary R C, C
complex conjugation in the Fock basis, commutes with H and maps each Bloch
block onto itself, so the block is real in a basis of R C-invariant
combinations of an orbit and its mirror image (a Frame).  At K = 0 and
K = pi, R itself commutes with the block and the frame splits it into an
even and an odd half.  The ground state and n_0|0> are R-even, so the odd
halves carry no weight and are solved for eigenvalues only.

The result is a channel table: every eigenstate's energy, momentum and
weight |<n|n_0|0>|^2.  That table is all the cross sections need, and all
the disk cache stores.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .fock import FockBasis

_CACHE_MAGIC = b"MWSPEC02"
_CACHE_HEADER = struct.Struct("<IIQI")   # L, N, table length, key length
_CACHE_CRC = struct.Struct("<I")


@dataclass(frozen=True)
class Orbits:
    """Translation orbits of a basis on the ring, and their mirror images.

    With T moving every boson one site to the right, state i equals
    T^shift[i] applied to the representative of orbit index[i], the orbit's
    lowest-index state.  size holds each orbit's period.  Reflection R maps
    the representative of orbit r onto T^mirror_shift[r] applied to the
    representative of orbit mirror[r].
    """

    index: np.ndarray
    shift: np.ndarray
    size: np.ndarray
    mirror: np.ndarray
    mirror_shift: np.ndarray


def translation_orbits(basis: FockBasis) -> Orbits:
    """Orbits, shifts, periods and mirror images from L + 1 vectorized rankings."""
    occ, L = basis.occ, basis.L
    # images[i, s] is the index of T^s applied to state i
    images = np.column_stack([basis.rank_rows(np.roll(occ, s, axis=1))
                              for s in range(L)])
    to_rep = images.argmin(axis=1)
    reps, index = np.unique(images[np.arange(len(basis)), to_rep],
                            return_inverse=True)
    size = L // (images[reps] == reps[:, None]).sum(axis=1)
    shift = (-to_rep) % L
    mirrored = basis.rank_rows(occ[reps][:, -np.arange(L) % L])
    return Orbits(index=index, shift=shift, size=size,
                  mirror=index[mirrored], mirror_shift=shift[mirrored])


def _bloch_phase(k: int, shift: np.ndarray, L: int) -> np.ndarray:
    """exp(2 pi i k shift / L); real for k = 0 and K = pi, where it is +-1."""
    angle = 2.0 * np.pi * (k * shift % L) / L
    if 2 * k % L == 0:
        return np.cos(angle)
    return np.exp(1j * angle)


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of one Bloch block in which the block is real.

    With |r,K> = p^-1/2 sum_s e^{-iKs} T^s|r> and R|r> = T^t|r'>, the map
    A = R C sends |r,K> to e^{iKt}|r',K>.  Its fixed vectors are
    e^{iKt/2}|r,K> for a self-mirrored orbit (r' = r), and
    (|r,K> + e^{iKt}|r',K>)/sqrt2 and i(|r,K> - e^{iKt}|r',K>)/sqrt2 for a
    mirror pair.  orbits lists the block's orbits in Bloch-column order;
    Bloch column c enters frame vectors col[0, c] and col[1, c] with
    coefficients coef[0, c] and coef[1, c] (coef[1, c] = 0 for a
    self-mirrored orbit).  The first `even` frame vectors are the R-even
    ones when K is 0 or pi, and the rest are R-odd.
    """

    orbits: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    even: int

    def bloch_amplitudes(self, x: np.ndarray) -> np.ndarray:
        """Bloch-column amplitudes of a vector given on the leading frame vectors."""
        full = np.zeros(self.orbits.size, dtype=x.dtype)
        full[:x.size] = x
        return (self.coef * full[self.col]).sum(axis=0)

    def coordinates(self, y: np.ndarray) -> np.ndarray:
        """Frame coordinates of an A-invariant vector given in Bloch columns.

        They are real, so only the rounding residue of the imaginary part
        is dropped.
        """
        return np.bincount(self.col.ravel(),
                           (self.coef.conj() * y).real.ravel(),
                           minlength=self.orbits.size)


def _bloch_frame(orbits: Orbits, k: int, L: int) -> Frame:
    """The A-invariant frame of momentum K = 2 pi k / L.

    Frame vectors come in the order: self-mirrored orbits with e^{iKt} = 1,
    the pairs' sums, the remaining self-mirrored orbits, the pairs'
    differences.  At K = 0 and K = pi that puts the R-even half first.
    """
    allowed = np.flatnonzero(k * orbits.size % L == 0)
    n = allowed.size
    local = np.full(orbits.size.size, -1)
    local[allowed] = np.arange(n)
    cols = np.arange(n)
    mate = local[orbits.mirror[allowed]]
    t = orbits.mirror_shift[allowed]
    own = cols[mate == cols]
    own_even = own[k * t[own] % L == 0]
    own_odd = own[k * t[own] % L != 0]
    first = cols[mate > cols]
    second = mate[first]
    even = own_even.size + first.size
    plus = own_even.size + np.arange(first.size)
    minus = even + own_odd.size + np.arange(first.size)
    col = np.empty((2, n), dtype=np.int64)
    coef = np.zeros((2, n), dtype=complex)
    col[0, own_even] = np.arange(own_even.size)
    col[0, own_odd] = even + np.arange(own_odd.size)
    col[1, own] = col[0, own]
    coef[0, own] = np.exp(1j * np.pi * (k * t[own] % (2 * L)) / L)
    phase = np.exp(2j * np.pi * (k * t[first] % L) / L) / np.sqrt(2.0)
    col[0, first] = col[0, second] = plus
    col[1, first] = col[1, second] = minus
    coef[0, first] = 1.0 / np.sqrt(2.0)
    coef[1, first] = 1j / np.sqrt(2.0)
    coef[0, second] = phase
    coef[1, second] = -1j * phase
    return Frame(orbits=allowed, col=col, coef=coef, even=even)


@dataclass
class HamiltonianMatrix:
    """Real symmetric matrix stored as a diagonal plus one off-diagonal triangle.

    orbits records the translation and reflection structure of the basis,
    from which the Bloch blocks are assembled.
    """

    dim: int
    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    L: int
    orbits: Orbits

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[np.arange(self.dim), np.arange(self.dim)] = self.diag
        dense[self.rows, self.cols] = self.vals
        dense[self.cols, self.rows] = self.vals
        return dense

    def frame_block(self, k: int) -> tuple[Frame, np.ndarray]:
        """Frame of momentum K = 2 pi k / L, and the real block over it.

        The Bloch state of an orbit of period p exists when K p is a
        multiple of 2 pi.  The Bloch element <r',K|H|r,K> sums
        <j|H|r> e^{iK shift[j]} sqrt(p_r/p_r') over the states j of orbit
        r'; each such term goes straight into the (at most four) frame
        elements that the two orbits enter, so no complex block is formed.
        """
        orb = self.orbits
        frame = _bloch_frame(orb, k, self.L)
        n = frame.orbits.size
        column = np.full(orb.size.size, -1)
        column[frame.orbits] = np.arange(n)
        states = np.arange(self.dim)
        dst = np.concatenate([states, self.rows, self.cols])
        src = np.concatenate([states, self.cols, self.rows])
        val = np.concatenate([self.diag, self.vals, self.vals])
        keep = orb.shift[src] == 0          # the source is a representative
        dst, src, val = dst[keep], src[keep], val[keep]
        a, b = column[orb.index[dst]], column[orb.index[src]]
        keep = (a >= 0) & (b >= 0)
        dst, src, a, b = dst[keep], src[keep], a[keep], b[keep]
        amp = (val[keep] * _bloch_phase(k, orb.shift[dst], self.L)
               * np.sqrt(orb.size[orb.index[src]] / orb.size[orb.index[dst]]))
        # <alpha|H|beta> = sum over Bloch (a, b) of conj(U[a, alpha]) H_ab U[b, beta]
        flat = frame.col[:, None, a] * n + frame.col[None, :, b]
        weight = (frame.coef[:, None, a].conj() * amp * frame.coef[None, :, b]).real
        block = np.bincount(flat.ravel(), weight.ravel(), minlength=n * n)
        return frame, block.reshape(n, n)


def lattice_bonds(L: int):
    """Nearest-neighbor bonds as unordered site pairs, wrap bond included.

    For L=2 the wrap bond coincides with the interior bond and is kept once.
    """
    return sorted({tuple(sorted((j, (j + 1) % L))) for j in range(L)})


def build_hamiltonian(basis: FockBasis, u_over_j: float) -> HamiltonianMatrix:
    """Assemble the fixed-N Hamiltonian in units of J."""
    occ = basis.occ
    dim = len(basis)
    diag = 0.5 * u_over_j * (occ * (occ - 1)).sum(axis=1).astype(float)

    rows, cols, vals = [], [], []
    states = np.arange(dim)
    for i, j in lattice_bonds(basis.L):
        for src, dst in ((j, i), (i, j)):
            movable = occ[:, src] > 0
            moved = occ[movable].copy()
            moved[:, dst] += 1
            moved[:, src] -= 1
            amp = np.sqrt((occ[movable, dst] + 1.0) * occ[movable, src])
            targets = basis.rank_rows(moved)
            keep = targets < states[movable]
            rows.append(states[movable][keep])
            cols.append(targets[keep])
            vals.append(-amp[keep])
    return HamiltonianMatrix(
        dim=dim,
        diag=diag,
        rows=np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64),
        cols=np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64),
        vals=np.concatenate(vals) if vals else np.zeros(0),
        L=basis.L,
        orbits=translation_orbits(basis),
    )


@dataclass(frozen=True)
class Eigenblock:
    """Eigenpairs of one solved Bloch block 0 <= k <= L/2.

    energies lists the whole block.  vectors holds the real eigenvectors in
    frame coordinates, one column per leading entry of energies: at K = 0
    and K = pi they span the even half only, the odd half being solved for
    its eigenvalues alone.
    """

    k: int
    frame: Frame
    energies: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Channel table of one sector: every eigenstate's energy, momentum and weight.

    Energies ascend, so the ground state is entry 0.  Entry n has lattice
    momentum K = 2 pi momentum[n] / L and weight w_n = |<n|n_0|0>|^2.
    energies_J holds the raw eigenvalues in units of J, the one unit of the
    table, so cached and freshly computed tables agree bit for bit.  Every
    column is read-only.
    """

    energies_J: np.ndarray
    momentum: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for column in (self.energies_J, self.momentum, self.weights):
            column.flags.writeable = False


def _solve(matrix: np.ndarray, k: int, vectors: bool = True):
    """Real symmetric eigensolve of one block or half-block.

    numpy's eigh and eigvalsh both call LAPACK's divide-and-conquer syevd
    on the lower triangle.
    """
    try:
        if vectors:
            return np.linalg.eigh(matrix)
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"block eigensolver failed at k={k}: {exc}") from exc


def diagonalize(h: HamiltonianMatrix) -> list[Eigenblock]:
    """Every Bloch block with 0 <= k <= L/2, solved completely, k ascending.

    The K = 0 and K = pi blocks are solved as an even half with
    eigenvectors and an odd half without.
    """
    L = h.L
    blocks = []
    for k in range(L // 2 + 1):
        frame, block = h.frame_block(k)
        if not frame.orbits.size:
            continue
        if 2 * k % L == 0:
            even = frame.even
            energies, vectors = _solve(block[:even, :even], k)
            energies = np.concatenate(
                [energies, _solve(block[even:, even:], k, vectors=False)])
        else:
            energies, vectors = _solve(block, k)
        blocks.append(Eigenblock(k, frame, energies, vectors))
    return blocks


def ground_matrix_elements(blocks: list[Eigenblock], orbits: Orbits,
                           basis: FockBasis) -> Spectrum:
    """The channel table of the solved blocks, with w_n = |<n|n_0|0>|^2.

    For an eigenstate of momentum K, <n|n_j|0> = e^{-iKj} <n|n_0|0>, so one
    weight per eigenstate carries the whole site-resolved table.  The ground
    state is the lowest state of the k = 0 even half, whose frame spans
    every orbit; the other k = 0 states have weight exactly 0.  n_0|0> is
    real and R-even, so its frame coordinates are real and the odd halves
    at K = 0 and K = pi have weight exactly 0.  A block with -K != K enters
    the table twice, at K and at -K.
    """
    L = basis.L
    zero = blocks[0]
    ground = zero.frame.bloch_amplitudes(zero.vectors[:, 0]).real
    occ0 = basis.occ[:, 0]
    energies, momenta, weights = [], [], []
    for block in blocks:
        phase = _bloch_phase(block.k, orbits.shift, L)
        fourier = np.zeros(orbits.size.size, dtype=phase.dtype)
        np.add.at(fourier, orbits.index, phase * occ0)
        cols = block.frame.orbits
        rhs = block.frame.coordinates(ground[cols] * fourier[cols] / orbits.size[cols])
        amplitude = block.vectors.T @ rhs[:block.vectors.shape[0]]
        if block.k == 0:
            # <n|n_j|0> is the same on every site and sums to <n|N|0> = 0
            amplitude[1:] = 0.0
        w = np.zeros(block.energies.size)
        w[:amplitude.size] = amplitude ** 2
        for q in sorted({block.k, -block.k % L}):
            energies.append(block.energies)
            momenta.append(np.full(w.size, q))
            weights.append(w)
    energies_j = np.concatenate(energies)
    # k = 0 comes first and its even half leads it, so the stable sort puts
    # that half's lowest state, the unique ground state, at entry 0
    order = np.argsort(energies_j, kind="stable")
    return Spectrum(energies_J=energies_j[order],
                    momentum=np.concatenate(momenta)[order],
                    weights=np.concatenate(weights)[order])


def cache_key(u_over_j: float) -> str:
    """Interaction strength rounded to 12 significant digits."""
    return f"{u_over_j:.11e}"


def spectrum_cache_path(cache_dir: str, L: int, N: int, key: str) -> str:
    return os.path.join(cache_dir, f"L{L}_N{N}_U{key}.spec")


def save_spectrum(path: str, L: int, N: int, key: str, spectrum: Spectrum) -> None:
    """Write the channel table as little-endian data behind a checked header.

    Layout: magic, (L, N, table length, key length), key, energies in units
    of J, weights, momentum indices, then a CRC-32 of everything after the
    magic.  The file is published atomically so concurrent scans can share a
    cache directory with a single writer per key.
    """
    key_bytes = key.encode("ascii")
    body = b"".join([
        _CACHE_HEADER.pack(L, N, spectrum.energies_J.size, len(key_bytes)),
        key_bytes,
        spectrum.energies_J.astype("<f8").tobytes(),
        spectrum.weights.astype("<f8").tobytes(),
        spectrum.momentum.astype("<u4").tobytes(),
    ])
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_CACHE_MAGIC + body + _CACHE_CRC.pack(zlib.crc32(body)))
    os.replace(tmp, path)


def load_spectrum(path: str, L: int, N: int, key: str) -> Spectrum:
    """Read back the cached channel table of sector (L, N, key).

    Raises ValueError for any file that is not in this format, fails its
    checksum (truncation included) or whose header names another sector,
    so callers can treat a damaged or mislabelled cache entry uniformly.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a spectrum cache file")
    body, crc = raw[len(_CACHE_MAGIC):-_CACHE_CRC.size], raw[-_CACHE_CRC.size:]
    if (len(body) < _CACHE_HEADER.size or len(crc) != _CACHE_CRC.size
            or _CACHE_CRC.unpack(crc)[0] != zlib.crc32(body)):
        raise ValueError(f"{path}: corrupt spectrum cache file")
    cached_L, cached_N, count, keylen = _CACHE_HEADER.unpack_from(body)
    start = _CACHE_HEADER.size + keylen
    if len(body) != start + 20 * count:
        raise ValueError(f"{path}: corrupt spectrum cache file")
    label = (cached_L, cached_N, body[_CACHE_HEADER.size:start])
    if label != (L, N, key.encode("ascii")):
        raise ValueError(f"{path}: cache entry is for another sector")
    return Spectrum(
        energies_J=np.frombuffer(body, "<f8", count, start).astype(float),
        momentum=np.frombuffer(body, "<u4", count, start + 16 * count).astype(np.int64),
        weights=np.frombuffer(body, "<f8", count, start + 8 * count).astype(float))
