"""Independent reference implementations used only by the tests.

Everything here is deliberately written against the grain of the package:
recursive enumeration instead of combinatorial ranking, dict lookup instead
of rank arrays, dense operator construction by explicit application, and
brute-force perturbation theory instead of closed forms.  Slow and simple
on purpose, so a shared bug with the library code is unlikely.
"""
import cmath
import math
from decimal import Decimal

import numpy as np
import scipy.sparse

from mottscope.errors import DomainError
from mottscope.scatter import (CrossSectionRecord, _lattice_sum, angle_sums,
                               elastic_kappa, form_factor, open_channels)
from mottscope.sce import (density_matrix_element, ph_energy_first_order,
                           ph_energy_second_order, ph_momentum_grids)


def boson_states(L, N):
    """All occupation tuples of L sites holding N bosons."""
    states = []

    def rec(prefix, left):
        if len(prefix) == L - 1:
            states.append(prefix + (left,))
            return
        for n in range(left + 1):
            rec(prefix + (n,), left - n)

    rec((), N)
    return states


def ring_bonds(L):
    if L == 2:
        return [(0, 1)]
    return [(i, (i + 1) % L) for i in range(L)]


def dense_hamiltonian(states, u_over_j):
    """H in units of J: (U/J)/2 sum n(n-1) minus nearest-neighbor hops."""
    index = {s: i for i, s in enumerate(states)}
    L = len(states[0])
    h = np.zeros((len(states), len(states)))
    for s, i in index.items():
        h[i, i] = 0.5 * u_over_j * sum(n * (n - 1) for n in s)
        for a, b in ring_bonds(L):
            for src, dst in ((a, b), (b, a)):
                if s[src] == 0:
                    continue
                t = list(s)
                amp = math.sqrt(t[src] * (t[dst] + 1))
                t[src] -= 1
                t[dst] += 1
                h[index[tuple(t)], i] -= amp
    return h


def ground_vector(states, u_over_j):
    h = dense_hamiltonian(states, u_over_j)
    w, v = np.linalg.eigh(h)
    return w[0], v[:, 0]


def bloch_block(ham, k):
    """Complex Bloch block of momentum K = 2 pi k / L, from explicit Bloch vectors.

    Column r of W is |r,K> = p^-1/2 sum_s e^{-iKs} T^s|r> over the basis of
    ham, built from the orbit table; the block is W^H H W with H and W
    sparse.  Returns (orbits spanning the block, dense block).
    """
    orb, L, dim = ham.orbits, ham.L, ham.dim
    allowed = np.flatnonzero(k * orb.size % L == 0)
    column = np.full(orb.size.size, -1)
    column[allowed] = np.arange(allowed.size)
    states = np.flatnonzero(column[orb.index] >= 0)
    K = 2.0 * math.pi * k / L
    coef = np.exp(-1j * K * orb.shift[states]) / np.sqrt(orb.size[orb.index[states]])
    w = scipy.sparse.csr_matrix((coef, (states, column[orb.index[states]])),
                                shape=(dim, allowed.size))
    upper = scipy.sparse.csr_matrix((ham.vals, (ham.rows, ham.cols)), shape=(dim, dim))
    h = upper + upper.T + scipy.sparse.diags(ham.diag)
    return allowed, (w.conj().T @ h @ w).toarray()


def frame_unitary(frame):
    """Sparse change of basis U[c, alpha] from Bloch columns to frame vectors."""
    n = frame.orbits.size
    return scipy.sparse.csr_matrix(
        (frame.coef.ravel(), (np.tile(np.arange(n), 2), frame.col.ravel())),
        shape=(n, n))


def dense_channel_table(states, u_over_j):
    """Dense eigendecomposition and the site-resolved table <n|n_j|0>.

    Returns (energies in units of J, ascending; table of shape (dim, L)).
    This is the full solve the momentum-block path replaces: one eigh over
    the whole sector and one (dim, dim) x (dim, L) product.
    """
    energies, vectors = np.linalg.eigh(dense_hamiltonian(states, u_over_j))
    occ = np.asarray(states, dtype=float)
    return energies, vectors.T @ (occ * vectors[:, [0]])


def dense_inelastic_cs(energies_j, table, J_Er, V0_Er, Ein_Er, theta,
                       mass_ratio=1.0):
    """Open-channel sum with the explicit site phase product.

    Returns (cross section per particle, number of open excited channels).
    """
    L = table.shape[1]
    N = table[0].sum()
    kappa_el = -math.pi * math.sin(theta) * math.sqrt(mass_ratio * Ein_Er)
    energies = energies_j * J_Er
    radicand = 1.0 - (energies - energies[0]) / Ein_Er
    idx = np.flatnonzero(radicand >= 0.0)
    idx = idx[idx != 0]
    kd = kappa_el * np.sqrt(radicand[idx])
    phases = np.exp(1j * np.outer(kd, np.arange(L)))
    structure = np.abs((phases * table[idx]).sum(axis=1)) ** 2
    form = np.exp(-kd ** 2 / (4.0 * math.pi ** 2 * math.sqrt(V0_Er)))
    value = (np.sqrt(radicand[idx]) * structure * form ** 2).sum() / round(N)
    return float(value), int(idx.size)


def elastic_cs_exact(spectrum, lattice, probe):
    """Ground-state channel of a channel table, at each angle's elastic transfer."""
    kappa_el = elastic_kappa(probe)
    value = (spectrum.weights[0] * _lattice_sum(kappa_el, 0, lattice.L)
             * form_factor(kappa_el, lattice.V0_Er) ** 2 / lattice.N)
    return CrossSectionRecord(value, 1)


def sce_grid_sum(lattice, probe, u_over_j, gap_order=1):
    """The strong-coupling sum as its own loop over the full (q, varkappa) grid.

    This is the form inelastic_cs_sce had before it became a channel table:
    the q = 0 row is kept, |M|^2 and the kinematic root are multiplied
    first, and the prefactor J_tilde^2 2 (nu+1) / L^3 is applied to the
    sum.  Returns (values per angle, channel_count, warning); the count is
    of open pairs with |M|^2 > 0, and the warning is no_open_channels when
    none is open, else gap_closed when any pair of the grid has gap <= 0.
    """
    L, nu = lattice.L, lattice.nu
    j_tilde = 1.0 / u_over_j
    q_d, k_d = ph_momentum_grids(L)
    qg, kg = q_d[:, None], k_d[None, :]
    gap = 1.0 - j_tilde * ph_energy_first_order(qg, kg, nu)
    if gap_order == 2:
        gap = gap + j_tilde**2 * ph_energy_second_order(qg, kg, nu, L)
    open_mask, root = open_channels(u_over_j * lattice.J_Er * gap, probe)
    m2 = np.abs(density_matrix_element(qg, kg, nu, L)) ** 2
    weight = root * m2
    q_index = np.arange(L)[:, None]
    kappa_el, sums = angle_sums(probe, root, lambda kd: (
        weight * _lattice_sum(kd, q_index, L) * form_factor(kd, lattice.V0_Er) ** 2))
    values = np.where(kappa_el == 0.0, 0.0, j_tilde**2 * 2.0 * (nu + 1) / L**3 * sums)
    count = int((open_mask & (m2 > 0.0)).sum())
    if count == 0:
        return values, count, "no_open_channels"
    return values, count, "gap_closed" if (gap <= 0.0).any() else ""


def density_fluctuation(states, gs_vec, kappa_d):
    """<rho+ rho> - |<rho>|^2 for rho = sum_j e^{i kappa d j} n_j.

    rho is diagonal in the occupation basis, so only |amplitudes|^2 enter.
    """
    occ = np.asarray(states, dtype=float)
    phases = np.exp(1j * kappa_d * np.arange(occ.shape[1]))
    rho = occ @ phases
    p = np.abs(gs_vec) ** 2
    mean = (p * rho).sum()
    second = (p * np.abs(rho) ** 2).sum()
    return float(second.real - abs(mean) ** 2)


def pair_manifold_pt(L, nu, group_tol=1e-9):
    """Brute-force degenerate perturbation theory for the one-pair band.

    Treats the on-site repulsion as the unperturbed Hamiltonian and the
    full hopping operator as the perturbation, over the entire Fock space.
    Returns [(e1, sorted [e2, ...]), ...] sorted by e1, in the convention
    E_pair / U = const - (J/U) e1 + (J/U)^2 e2.  e2 is the pair state's own
    shift: the intermediate sum runs over every state outside the manifold,
    the Mott ground state included, and nothing is subtracted.
    """
    states = boson_states(L, nu * L)
    d0 = np.array([0.5 * sum(n * (n - 1) for n in s) for s in states])
    k = dense_hamiltonian(states, 0.0)
    d_mott = 0.5 * L * nu * (nu - 1)

    sel = np.where(np.abs(d0 - (d_mott + 1.0)) < group_tol)[0]
    rest = np.where(np.abs(d0 - (d_mott + 1.0)) >= group_tol)[0]
    assert len(sel) == L * (L - 1)
    w1, v1 = np.linalg.eigh(k[np.ix_(sel, sel)])
    denom = (d_mott + 1.0) - d0[rest]

    groups = []
    i = 0
    while i < len(w1):
        j = i
        while j < len(w1) and w1[j] - w1[i] < group_tol:
            j += 1
        b = k[np.ix_(rest, sel)] @ v1[:, i:j]
        heff = (b.T * (1.0 / denom)) @ b
        w2 = np.linalg.eigvalsh(heff)
        groups.append((-w1[i:j].mean(), sorted(float(x) for x in w2)))
        i = j
    groups.sort(key=lambda g: g[0])
    return groups


def ph_state_vector(q_d, k_d, basis):
    """Zeroth-order pair eigenstate |q, varkappa> as a vector over a Fock basis.

    A particle on site s and a hole l sites further on, with amplitude
    sqrt(2/L) sin(varkappa l) e^{i z l} e^{i q s} / sqrt(L), where z is the
    phase of the pair-hopping amplitude (nu+1) e^{iq} + nu.  Basis rows are
    looked up in a dict, not through the package's combinatorial rank.
    """
    L, N = basis.L, basis.N
    if L < 3:
        raise DomainError(f"pair states need L >= 3, got L={L}")
    if N % L != 0 or N // L < 1:
        raise DomainError(f"pair states need integer filling, got N={N}, L={L}")
    nu = N // L
    z = cmath.phase((nu + 1) * cmath.exp(1j * q_d) + nu)
    index = {row: i for i, row in enumerate(map(tuple, basis.occ.tolist()))}
    vec = np.zeros(len(index), dtype=complex)
    for l in range(1, L):
        coef = math.sqrt(2.0 / L) * math.sin(k_d * l) * cmath.exp(1j * z * l)
        for s in range(1, L + 1):
            occ = [nu] * L
            occ[s - 1] += 1
            occ[(s - 1 + l) % L] -= 1
            vec[index[tuple(occ)]] += coef * cmath.exp(1j * q_d * s) / math.sqrt(L)
    return vec


def group_by_first(pairs, tol=1e-9):
    """Collapse (e1, e2) pairs into [(e1, sorted [e2...])] groups, by e1."""
    pairs = sorted(pairs)
    groups = []
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] - pairs[i][0] < tol:
            j += 1
        e1s = [p[0] for p in pairs[i:j]]
        groups.append((sum(e1s) / len(e1s), sorted(p[1] for p in pairs[i:j])))
        i = j
    return groups


def _site_condensate(eigh, diag, off, lam):
    """<a> and d<a>/dlambda in the ground state of diag - lam (a + a^dag).

    d<a>/dlambda is the second-order sum |<m|a + a^dag|0>|^2 / (E_m - E_0)
    over the excited states of the full eigensystem that eigh returns.
    """
    n = len(diag)
    h = [[diag[i] if i == j else (-lam * off[min(i, j)] if abs(i - j) == 1 else 0)
          for j in range(n)] for i in range(n)]
    energies, vecs = eigh(h)
    ground = min(range(n), key=lambda m: energies[m])

    def hop(m):  # <m|a + a^dag|0>
        return sum(off[i] * (vecs[i][m] * vecs[i + 1][ground]
                             + vecs[i + 1][m] * vecs[i][ground])
                   for i in range(n - 1))

    slope = sum(hop(m) ** 2 / (energies[m] - energies[ground])
                for m in range(n) if m != ground)
    return hop(ground) / 2, slope


def mp_selfconsistent_lambda(nu, j_tilde, n_max=None, dps=40):
    """Root of lambda = 2 J~ <a>_lambda on the site truncated at n_max bosons.

    Newton steps on 2 J~ <a> - lambda, started from the top of the bracket
    2 J~ sqrt(n_max): in floats with numpy's eigh until the step is 1e-9
    of lambda, then with mpmath's eigsy at dps digits until it is 10^(5-dps).
    """
    import mpmath

    n_max = nu + 10 if n_max is None else n_max

    def solve(eigh, sqrt, lam, tol):
        mu = sqrt(nu * (nu + 1)) - 1
        diag = [n * (n - 1) / 2 - mu * n for n in range(n_max + 1)]
        off = [sqrt(n) for n in range(1, n_max + 1)]
        for _ in range(60):
            a, slope = _site_condensate(eigh, diag, off, lam)
            step = (2 * j_tilde * a - lam) / (2 * j_tilde * slope - 1)
            lam -= step
            if abs(step) <= tol * lam:
                return lam
        raise AssertionError(f"no Newton convergence at nu={nu}, j={j_tilde}")

    def np_eigh(h):
        e, v = np.linalg.eigh(np.array(h, dtype=float))
        return e.tolist(), v.tolist()

    def mp_eigh(h):
        e, q = mpmath.eigsy(mpmath.matrix(h))
        return [e[i] for i in range(len(h))], q.tolist()

    start = solve(np_eigh, math.sqrt, 2.0 * j_tilde * math.sqrt(n_max), 1e-9)
    with mpmath.workdps(dps):
        return solve(mp_eigh, mpmath.sqrt, mpmath.mpf(start),
                     mpmath.mpf(10) ** (5 - dps))


def gap_cubic(j, nu):
    """Gap-closing cubic in any exact number type (int, Fraction, mpf)."""
    return (1 - 2 * (2 * nu + 1) * j + (1 + 2 * nu * (nu + 1)) * j**2
            + 2 * nu * (nu * nu + 2) * j**3)


def mp_critical_j(nu, dps=50):
    """Smallest positive root of the gap cubic, bisected in mpmath.

    The bracket is (0, 2/(5 nu)]: the cubic is 1 at 0 and negative at
    2/(5 nu) for nu >= 1 (test_gap_cubic_negative_at_two_fifths), and it
    falls until its one positive turning point, so the smallest root is
    the first sign change.  Halves to 10^(5-dps) of the upper end.
    """
    import mpmath

    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(0), mpmath.mpf(2) / (5 * nu)
        while hi - lo > mpmath.mpf(10) ** (5 - dps) * hi:
            mid = (lo + hi) / 2
            if gap_cubic(mid, mpmath.mpf(nu)) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def cell_12_digits(x):
    """An mpmath number as the package prints a float: 12 digits, 'e+NN'."""
    import mpmath

    mantissa, exponent = format(Decimal(mpmath.nstr(x, 40)), ".11e").split("e")
    return f"{mantissa}e{int(exponent):+03d}"
