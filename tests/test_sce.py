import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from mottscope.config import LatticeSpec, ProbeSpec
from mottscope.errors import DomainError
from mottscope.fock import enumerate_basis
from mottscope.scatter import elastic_kappa, form_factor, interference
from mottscope.sce import (critical_j, density_matrix_element,
                           effective_tunneling,
                           inelastic_cs_sce, large_l_cs,
                           ph_energy_first_order, ph_energy_second_order,
                           ph_momentum_grids, tunneling_phase)
from mottscope.spectrum import build_hamiltonian

from oracles import (gap_cubic, group_by_first, mp_critical_j, pair_manifold_pt,
                     ph_state_vector, sce_grid_sum)

PROBE = ProbeSpec(Ein_Er=2.0, theta=0.99)


def test_momentum_grids():
    q, k = ph_momentum_grids(6)
    np.testing.assert_allclose(q, 2 * math.pi * np.arange(6) / 6, atol=1e-15)
    np.testing.assert_allclose(k, math.pi * np.arange(1, 6) / 6, atol=1e-15)


def test_effective_tunneling_and_phase():
    t = effective_tunneling(0.9, 2)
    assert t == pytest.approx(3.864829904811993 + 2.3499807288824504j, rel=1e-14)
    assert tunneling_phase(0.9, 2) == pytest.approx(0.5463121062747734, rel=1e-13)
    assert tunneling_phase(0.0, 3) == 0.0
    # at q = pi the amplitude is -(nu+1) + nu = -1, so the phase is pi
    assert tunneling_phase(math.pi, 1) == pytest.approx(math.pi, rel=1e-14)
    assert abs(effective_tunneling(math.pi, 1)) == pytest.approx(1.0, rel=1e-12)


def test_first_order_energy():
    assert ph_energy_first_order(0.9, 1.1, 2) \
        == pytest.approx(4.1034100855352795, rel=1e-14)
    # even in q, zero at the band center k = pi/2
    assert ph_energy_first_order(0.7, 1.2, 1) \
        == pytest.approx(ph_energy_first_order(-0.7, 1.2, 1), rel=1e-14)
    assert ph_energy_first_order(0.7, math.pi / 2, 3) == pytest.approx(0.0, abs=1e-14)
    # at q = 0: 2 cos(k) (2 nu + 1)
    assert ph_energy_first_order(0.0, 0.5, 2) \
        == pytest.approx(10.0 * math.cos(0.5), rel=1e-14)


@pytest.mark.parametrize("L,nu", [(5, 1), (7, 2)])
def test_first_order_band_is_tridiagonal_spectrum(L, nu):
    # at fixed q the pair hops on an open chain in the separation index, so
    # the k-band must be the spectrum of the uniform tridiagonal matrix
    q_grid, k_grid = ph_momentum_grids(L)
    for q in q_grid:
        hop = abs(effective_tunneling(q, nu))
        w = eigh_tridiagonal(np.zeros(L - 1), hop * np.ones(L - 2),
                             eigvals_only=True)
        band = np.sort([ph_energy_first_order(q, k, nu) for k in k_grid])
        np.testing.assert_allclose(band, np.sort(w), rtol=0, atol=1e-12)


@pytest.mark.parametrize("L,nu", [(3, 1), (4, 2)])
def test_second_order_matches_brute_force_pt(L, nu):
    q_grid, k_grid = ph_momentum_grids(L)
    closed = group_by_first(
        [(ph_energy_first_order(q, k, nu), ph_energy_second_order(q, k, nu, L))
         for q in q_grid for k in k_grid])
    brute = pair_manifold_pt(L, nu)
    assert len(closed) == len(brute)
    for (e1c, e2cs), (e1b, e2bs) in zip(closed, brute):
        assert e1c == pytest.approx(e1b, abs=1e-9)
        np.testing.assert_allclose(e2cs, e2bs, rtol=0, atol=1e-9)


def test_second_order_continuity_at_zone_center():
    # the uniform-intermediate-state terms switch on exactly at q = 0 and
    # compensate the bracket switch, so the generic branch limits onto the
    # q = 0 value
    e0 = ph_energy_second_order(0.0, math.pi / 6, 1, 6)
    assert e0 == pytest.approx(-14.333333333333334, rel=1e-13)
    assert ph_energy_second_order(1e-13, math.pi / 6, 1, 6) == e0
    # at q = 1e-5 the mask is off, so this is the generic branch
    generic = ph_energy_second_order(1e-5, math.pi / 6, 1, 6)
    assert generic == pytest.approx(e0, abs=1e-8)


def test_second_order_frozen_value():
    assert ph_energy_second_order(2 * math.pi / 6, math.pi / 6, 1, 6) \
        == pytest.approx(-13.159863945578232, rel=1e-13)
    with pytest.raises(DomainError):
        ph_energy_second_order(0.5, 0.5, 1, 2)


@pytest.mark.parametrize("L,nu", [(4, 1), (5, 1), (4, 2)])
def test_ph_states_orthonormal_and_diagonalize_hopping(L, nu):
    lattice = LatticeSpec(L=L, nu=nu)
    basis = enumerate_basis(L, lattice.N)
    q_grid, k_grid = ph_momentum_grids(L)
    vecs = np.column_stack([ph_state_vector(q, k, basis)
                            for q in q_grid for k in k_grid])
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(vecs.shape[1])).max() < 1e-12

    # projected eigenvalue relation: P K P |q,k> = -e1 |q,k> with K the
    # hopping part of the Hamiltonian (units of J)
    hop = build_hamiltonian(basis, 0.0).to_dense()
    pair_diag = 0.5 * (basis.occ * (basis.occ - 1)).sum(axis=1)
    in_manifold = pair_diag == (0.5 * L * nu * (nu - 1) + 1)
    proj = np.where(in_manifold, 1.0, 0.0)
    idx = 0
    for q in q_grid:
        for k in k_grid:
            v = vecs[:, idx]
            e1 = ph_energy_first_order(q, k, nu)
            resid = proj * (hop @ v) - (-e1) * v
            assert np.abs(resid).max() < 1e-12
            idx += 1


def test_density_matrix_element_basics():
    m = density_matrix_element(2 * math.pi / 6, math.pi / 6, 1, 6)
    assert abs(m) ** 2 == pytest.approx(0.8622448979591834, rel=1e-12)
    # zero-momentum pair carries no density modulation
    assert density_matrix_element(0.0, 0.7, 2, 8) == 0.0
    # reflection q -> 2 pi - q preserves the weight
    assert abs(density_matrix_element(0.7, 1.1, 2, 8)) \
        == pytest.approx(abs(density_matrix_element(2 * math.pi - 0.7, 1.1, 2, 8)),
                         rel=1e-12)
    arr = density_matrix_element(np.array([0.0, 0.7]), np.array([0.5, 1.1]), 1, 6)
    assert arr.shape == (2,)
    assert arr[0] == 0.0


@pytest.mark.parametrize("L", [5, 9])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_weight_sum_identity(L, nu):
    # summing |M|^2 over the relative momentum leaves 4 L sin^2(q/2)
    q_grid, k_grid = ph_momentum_grids(L)
    for q in q_grid:
        total = sum(abs(density_matrix_element(q, k, nu, L)) ** 2 for k in k_grid)
        assert total == pytest.approx(4.0 * L * math.sin(q / 2.0) ** 2, abs=1e-10)


def test_pair_weights_match_exact_diagonalization(sector_factory):
    # group one-pair band channels by energy and compare their summed
    # structure weights against the dense solution deep in the insulator
    L, nu, u = 5, 1, 200.0
    lattice, basis, spectrum = sector_factory(L, nu, u)
    kel = elastic_kappa(PROBE)
    band = slice(1, 1 + L * (L - 1))
    de_band = (spectrum.energies_J - spectrum.energies_J[0])[band]
    q_band = 2.0 * math.pi * spectrum.momentum[band] / L
    w_exact = spectrum.weights[band] * interference(kel, q_band, L) / L

    q_grid, k_grid = ph_momentum_grids(L)
    jt = 1.0 / u
    e_sce, w_sce = [], []
    for q in q_grid:
        for k in k_grid:
            m2 = abs(density_matrix_element(q, k, nu, L)) ** 2
            e_sce.append(u * (1.0 - jt * ph_energy_first_order(q, k, nu)))
            w_sce.append(2.0 * (nu + 1) / L ** 3 * jt ** 2 * m2
                         * interference(kel, q, L))

    def group(energies, weights):
        order = np.argsort(energies)
        e, w = np.asarray(energies)[order], np.asarray(weights)[order]
        out = []
        start = 0
        for i in range(1, len(e) + 1):
            if i == len(e) or e[i] - e[i - 1] > 0.5:
                out.append((e[start:i].mean(), w[start:i].sum()))
                start = i
        return out

    g_exact = group(de_band, w_exact)
    g_sce = group(e_sce, w_sce)
    assert len(g_exact) == len(g_sce)
    w_max = max(w for _, w in g_exact)
    for (ee, we), (es, ws) in zip(g_exact, g_sce):
        assert es == pytest.approx(ee, abs=0.2)      # band energies, units of J
        if we >= 1e-2 * w_max:
            assert ws == pytest.approx(we, rel=0.06)  # weights are O(j~^2) exact


def test_sce_tracks_exact_on_small_lattice(sector_factory):
    lattice, basis, spectrum = sector_factory(4, 1, 50.0)
    from mottscope.scatter import inelastic_cs_exact
    exact = inelastic_cs_exact(spectrum, lattice, PROBE)
    sce = inelastic_cs_sce(lattice, PROBE, 50.0, gap_order=2)
    assert sce.value == pytest.approx(exact.value, rel=0.015)


def test_sce_reference_values():
    lattice = LatticeSpec(L=6, nu=1)
    u30 = 30.0
    r1 = inelastic_cs_sce(lattice, PROBE, u30, gap_order=1)
    r2 = inelastic_cs_sce(lattice, PROBE, u30, gap_order=2)
    assert r1.value == pytest.approx(0.012286722549599364, rel=1e-12)
    assert r2.value == pytest.approx(0.012280349726029701, rel=1e-12)
    assert r1.channel_count == r2.channel_count == 25


@pytest.mark.parametrize("m,delta", [(-1, 3e-7), (-2, -2e-6), (1, 1e-4),
                                     (-3, 5e-3), (2, -4e-8)])
def test_sce_lattice_sum_near_distant_peaks(m, delta):
    # one channel's kappa a hair away from q + 2 pi m: the cross section must
    # keep the accuracy of the explicit phase sum |sum_j e^{i(kappa-q)j}|^2
    mpmath = pytest.importorskip("mpmath")
    L, nu, Ein = 12, 1, 40.0
    lattice, u = LatticeSpec(L=L, nu=nu), 20.0
    q_d, k_d = ph_momentum_grids(L)
    gap = 1.0 - ph_energy_first_order(q_d[:, None], k_d[None, :], nu) / 20.0
    radicand = 1.0 - u * lattice.J_Er * gap / Ein
    j, i = 5, 3
    target = 2.0 * math.pi * (j / L + m) + delta
    theta = math.asin(-target / (math.pi * math.sqrt(Ein * radicand[j, i])))
    probe = ProbeSpec(Ein_Er=Ein, theta=theta)
    kappa = elastic_kappa(probe) * np.sqrt(radicand)
    assert (radicand > 0).all()
    assert abs(kappa[j, i] - target) < 1e-12

    mpmath.mp.dps = 40
    two_pi = 2 * mpmath.pi

    def phase_sum(kap, jq):
        phi = mpmath.mpf(float(kap)) - two_pi * jq / L
        return float(abs(mpmath.fsum(mpmath.expj(phi * s) for s in range(L))) ** 2)

    brute = np.array([[phase_sum(kappa[a, b], a) for b in range(L - 1)]
                      for a in range(L)])
    terms = (np.sqrt(radicand) * np.abs(density_matrix_element(
        q_d[:, None], k_d[None, :], nu, L)) ** 2 * brute
        * form_factor(kappa, lattice.V0_Er) ** 2)
    expected = terms.sum() * 2.0 * (nu + 1) / L**3 / 20.0**2
    rec = inelastic_cs_sce(lattice, probe, u)
    assert rec.value == pytest.approx(expected, rel=1e-13)


def test_second_order_grid_matches_scalar_calls():
    for L, nu in [(3, 1), (4, 2), (12, 1), (12, 2)]:
        q_d, k_d = ph_momentum_grids(L)
        grid = ph_energy_second_order(q_d[:, None], k_d[None, :], nu, L)
        loop = [[ph_energy_second_order(float(q), float(k), nu, L) for k in k_d]
                for q in q_d]
        assert isinstance(loop[0][0], float)
        assert np.array_equal(grid, np.array(loop))
    # the q = 0 branch is picked by the mask on every image of q = 0
    zero = ph_energy_second_order(np.array([0.0, 2.0 * math.pi]), 0.7, 2, 7)
    assert zero[0] == pytest.approx(zero[1], rel=1e-12)
    assert ph_energy_second_order(2.0 * math.pi, 0.7, 2, 7) == zero[1]


def test_sce_channel_table_matches_grid_sum():
    # the q != 0 pair table, summed by the lattice channel kernel, against
    # the full-grid sum with its own prefactor: the same value to rounding,
    # the same channel count, and the same warning: no_open_channels exactly
    # when no pair is open, else gap_closed past the gap closing
    rng = np.random.default_rng(20261020)
    sites = list(range(3, 41)) + [96]
    for call in range(160):
        L = sites[call % len(sites)]
        lattice = LatticeSpec(L=L, nu=int(rng.integers(1, 4)))
        u = float(np.exp(rng.uniform(math.log(2.0), math.log(300.0))))
        thetas = np.concatenate([[0.0, math.pi], rng.uniform(-3.14, 3.14, 3)])
        probe = ProbeSpec(Ein_Er=float(np.exp(rng.uniform(math.log(1e-3),
                                                           math.log(20.0)))),
                          theta=thetas)
        for gap_order in (1, 2):
            rec = inelastic_cs_sce(lattice, probe, u, gap_order=gap_order)
            values, count, warning = sce_grid_sum(lattice, probe, u, gap_order)
            assert rec.channel_count == count
            assert rec.warning == warning
            assert rec.value[:2].tolist() == [0.0, 0.0]
            np.testing.assert_allclose(rec.value, values, rtol=1e-14, atol=0.0)


def test_sce_quadratic_law_at_fixed_interaction_energy():
    # halving J at fixed U_Er freezes the kinematics, so the cross section
    # must drop by the squared tunneling ratio
    probe = ProbeSpec(Ein_Er=16.0, theta=math.asin(0.75))
    r1 = inelastic_cs_sce(LatticeSpec(L=8, nu=1, J_Er=6.5e-3), probe, 80.0)
    r2 = inelastic_cs_sce(LatticeSpec(L=8, nu=1, J_Er=3.25e-3), probe, 160.0)
    assert r1.value / r2.value == pytest.approx(4.0, rel=1e-4)


def test_sce_closed_channels():
    rec = inelastic_cs_sce(LatticeSpec(L=6, nu=1), ProbeSpec(Ein_Er=0.05, theta=0.99), 50.0)
    assert rec.value == 0.0
    assert rec.channel_count == 0
    assert rec.warning == "no_open_channels"


def test_sce_gap_closed_warning():
    # L=8, nu=1: the q = 0 pair gap 1 - 6 J~ cos(pi/8) closes below
    # U/J = 5.54 and the lowest q != 0 one below 5.17.  Past the closing
    # the negative-gap pairs count as open and the value stands, with a
    # warning in place of the empty cell
    lattice, probe = LatticeSpec(L=8, nu=1), ProbeSpec(theta=0.99, Ein_Er=2.0)
    rec = inelastic_cs_sce(lattice, probe, 2.0)
    assert rec.value == 2.7530875544305187
    assert rec.channel_count == 49
    assert rec.warning == "gap_closed"
    assert inelastic_cs_sce(lattice, probe, 5.3).warning == "gap_closed"
    # a closed probe keeps its own warning: the row's value is exactly 0
    rec = inelastic_cs_sce(lattice, ProbeSpec(theta=0.99, Ein_Er=1e-4), 5.3)
    assert (rec.value, rec.channel_count, rec.warning) == (0.0, 0, "no_open_channels")
    assert inelastic_cs_sce(lattice, probe, 5.6).warning == ""
    # the order-2 shift, extensive in L, closes it further out
    assert inelastic_cs_sce(lattice, probe, 5.6, gap_order=2).warning == "gap_closed"


def test_sce_domain_errors():
    with pytest.raises(DomainError):
        inelastic_cs_sce(LatticeSpec(L=2, nu=1), PROBE, 10.0)
    with pytest.raises(DomainError):
        inelastic_cs_sce(LatticeSpec(L=6, nu=1), PROBE, 0.0)
    with pytest.raises(DomainError):
        inelastic_cs_sce(LatticeSpec(L=6, nu=1), PROBE, 10.0, gap_order=3)
    basis = enumerate_basis(4, 3)      # filling 3/4 is not integer
    with pytest.raises(DomainError):
        ph_state_vector(0.5, 0.5, basis)


def test_large_l_value_and_warning():
    u30 = 30.0
    rec = large_l_cs(1, PROBE, 15.0, u30)
    assert rec.value == pytest.approx(0.0136579308435769, rel=1e-12)
    assert rec.warning == ""
    # band top sits at (30 + 2 sqrt(9)) J = 0.234 E_r; a probe below it warns
    low = large_l_cs(1, ProbeSpec(Ein_Er=0.2, theta=0.99), 15.0, u30)
    assert low.warning == "high_ein_condition"
    with pytest.raises(DomainError):
        large_l_cs(1, PROBE, 15.0, 0.0)


def test_large_l_convergence_point():
    # documented convergence example: kappa_el lands on the flat maximum and
    # the finite-size sum closes onto the thermodynamic form by L = 16
    probe = ProbeSpec(Ein_Er=16.0, theta=math.asin(0.75))
    u20 = 20.0
    limit = large_l_cs(1, probe, 15.0, u20)
    for L in (12, 16):
        finite = inelastic_cs_sce(LatticeSpec(L=L, nu=1), probe, u20)
        assert finite.value == pytest.approx(limit.value, rel=0.01)


def test_critical_couplings():
    assert critical_j(1) == pytest.approx((math.sqrt(7.0) - 2.0) / 3.0, abs=1e-10)
    assert critical_j(2) == pytest.approx(0.125, abs=1e-10)
    # the critical coupling grows shallower with filling
    assert critical_j(2) < critical_j(1)


def test_gap_cubic_negative_at_two_fifths():
    # nu^2 f(2/(5 nu)) is a quadratic in nu, so agreeing at three fillings
    # proves f(2/(5 nu)) = -0.152 - 0.48/nu + 0.416/nu^2 for every nu; that
    # is convex in 1/nu and negative at 1/nu = 0 and 1, so critical_j's
    # bracket (0, j*] holds a sign change for every filling nu >= 1
    def closed(nu):
        return (Fraction(-152, 1000) - Fraction(48, 100) / nu
                + Fraction(416, 1000) / nu**2)

    for nu in (1, 2, 3, 10**100):
        assert gap_cubic(Fraction(2, 5 * nu), nu) == closed(nu)
    assert Fraction(-152, 1000) < 0 and Fraction(-152 - 480 + 416, 1000) < 0


def test_critical_j_domain():
    # the gap cubic describes fillings nu >= 1 only
    for nu in (0, -1):
        with pytest.raises(DomainError, match="nu >= 1"):
            critical_j(nu)
    # the turning point is solved in x = nu j, so nu^2 never overflows
    nu = 10**100
    assert critical_j(nu) == pytest.approx(float(mp_critical_j(nu)), rel=1e-15)


@pytest.mark.parametrize("nu", [10**3, 10**5])
def test_critical_j_at_large_filling(nu):
    # both positive roots sit within 0.5/nu of each other; the bracket
    # ends at the turning point between them, so it holds only the smaller
    roots = np.roots([2.0 * nu * (nu * nu + 2.0), 1.0 + 2.0 * nu * (nu + 1),
                      -2.0 * (2 * nu + 1), 1.0])
    smallest = min(r.real for r in roots if np.isreal(r) and r.real > 0.0)
    assert critical_j(nu) == pytest.approx(smallest, rel=1e-9)
