import math

import numpy as np
import pytest

from mottscope import scatter
from mottscope.config import ProbeSpec
from mottscope.meanfield import condensate_lambda, inelastic_cs_mf
from mottscope.scatter import (_lattice_sum, angle_sums,
                               elastic_kappa, form_factor, inelastic_cs_exact,
                               interference, open_channels)
from mottscope.sce import inelastic_cs_sce, large_l_cs

from oracles import (boson_states, dense_channel_table, dense_inelastic_cs,
                     density_fluctuation, elastic_cs_exact, ground_vector)

PROBE = ProbeSpec(Ein_Er=2.0, theta=0.99)


def test_form_factor_values():
    assert form_factor(0.0, 15.0) == 1.0
    assert form_factor(math.pi, 15.0) == pytest.approx(0.9374894988407955, rel=1e-14)
    assert form_factor(2.5, 15.0) == pytest.approx(0.95994759048362, rel=1e-14)
    assert form_factor(-2.5, 15.0) == form_factor(2.5, 15.0)
    # deeper lattice -> tighter on-site density -> flatter form factor
    assert form_factor(2.5, 30.0) > form_factor(2.5, 15.0)
    arr = form_factor(np.array([0.0, math.pi]), 15.0)
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(0.9374894988407955, rel=1e-14)


def test_elastic_kappa():
    # a single angle is an axis of length 1
    assert elastic_kappa(PROBE).shape == (1,)
    assert elastic_kappa(PROBE) == pytest.approx(-3.714365556181404, rel=1e-14)
    assert elastic_kappa(ProbeSpec(Ein_Er=0.5, theta=0.3, mass_ratio=0.25)) \
        == pytest.approx(-0.328240421014175, rel=1e-14)
    # backscattering angle flips the sign, theta = 0 transfers nothing
    assert elastic_kappa(ProbeSpec(Ein_Er=2.0, theta=-0.99)) \
        == pytest.approx(3.714365556181404, rel=1e-14)
    assert elastic_kappa(ProbeSpec(Ein_Er=2.0, theta=0.0)) == 0.0
    # backscattering transfers nothing either, although sin(pi) = 1.2e-16;
    # every other angle keeps the plain formula to the bit
    assert elastic_kappa(ProbeSpec(Ein_Er=2.0, theta=math.pi)) == 0.0
    for theta in (math.nextafter(math.pi, 0.0), 3.0, -3.0):
        assert elastic_kappa(ProbeSpec(Ein_Er=2.0, theta=theta)) \
            == -math.pi * math.sin(theta) * math.sqrt(2.0)


def test_interference():
    assert interference(1.3, 0.7, 6) == pytest.approx(10.859445761385775, rel=1e-12)
    # coincidence limit: phi = 0 (exact and within the guard window)
    assert interference(2 * math.pi / 5, 2 * math.pi / 5, 5) == 25.0
    assert interference(1e-10, 0.0, 7) == 49.0
    assert interference(2 * math.pi, 0.0, 7) == 49.0
    # brute-force phase sum at a generic point
    phi = 1.234
    brute = abs(sum(np.exp(1j * phi * j) for j in range(9))) ** 2
    assert interference(phi, 0.0, 9) == pytest.approx(brute, rel=1e-12)
    got = interference(np.array([0.3, 0.4]), np.array([0.3, 0.1]), 4)
    assert got[0] == 16.0
    assert got[1] == pytest.approx(abs(sum(np.exp(0.3j * j) for j in range(4))) ** 2,
                                   rel=1e-12)


def test_lattice_sum_near_distant_peaks():
    # kappa a hair away from K + 2 pi m: the kernel must keep the accuracy
    # of the explicit phase sum, whichever image of K it is handed
    for L, k, m in [(7, 2, -1), (7, 5, -2), (6, 3, 2), (2, 1, -2)]:
        for delta in (3e-7, -1e-5, 2e-3):
            kappa = 2.0 * math.pi * (k / L + m) + delta
            brute = abs(np.exp(1j * (kappa - 2.0 * math.pi * k / L)
                               * np.arange(L)).sum()) ** 2
            assert _lattice_sum(kappa, k, L) == pytest.approx(brute, rel=1e-12)
            assert _lattice_sum(np.array([kappa]), np.array([k]), L)[0] \
                == pytest.approx(brute, rel=1e-12)


def test_channel_kinematics():
    kappa_el = elastic_kappa(PROBE)
    open_mask, root = open_channels([0.0, 1.0, 2.0, 3.0], PROBE)
    assert open_mask.tolist() == [True, True, True, False]
    np.testing.assert_allclose(root, [1.0, math.sqrt(0.5), 0.0, 0.0], atol=1e-15)
    # each channel scatters at kappa_el * root, one row per angle
    seen = []
    kel, sums = angle_sums(PROBE, root, lambda kd: seen.append(kd) or kd)
    kappa_d = seen[0][0]
    assert kel.tolist() == [kappa_el]
    assert kappa_d[0] == kappa_el
    assert kappa_d[1] == pytest.approx(kappa_el * math.sqrt(0.5), rel=1e-14)
    assert kappa_d[2] == 0.0 and kappa_d[3] == 0.0   # at and past threshold
    assert sums[0] == kappa_d.sum()
    # any shape of excitation grid: the sce pair grid, the two mf gaps
    grid = np.array([[0.5, 2.5], [4.0, 1.0]])
    open_mask, root = open_channels(grid, PROBE)
    assert open_mask.tolist() == [[True, False], [False, True]]
    np.testing.assert_allclose(root ** 2, np.maximum(1.0 - grid / 2.0, 0.0),
                               atol=1e-15)
    seen.clear()
    angle_sums(PROBE, root, lambda kd: seen.append(kd) or kd)
    np.testing.assert_array_equal(seen[0], [kappa_el * root])


def test_angle_axis_matches_scalar_angles(sector_factory, monkeypatch):
    # an array of angles, split over several blocks, gives every angle the
    # bits of its own one-angle call, whose value is a length-1 axis;
    # theta = 0 and pi transfer nothing, so the exact and strong-coupling
    # sums are exactly +0 there
    monkeypatch.setattr(scatter, "ANGLE_BLOCK_ELEMENTS", 64)
    lattice, _, spectrum = sector_factory(5, 1, 10.0)
    thetas = np.array([0.0, 0.99, -0.4, math.pi, 0.99, 2.5, -3.0])
    for ein in (0.2, 2.0, 20.0):
        probe = ProbeSpec(Ein_Er=ein, theta=thetas, mass_ratio=0.7)
        for method in (
                lambda p: inelastic_cs_exact(spectrum, lattice, p),
                lambda p: inelastic_cs_sce(lattice, p, 10.0, gap_order=2),
                lambda p: large_l_cs(1, p, lattice.V0_Er, 10.0),
                lambda p: inelastic_cs_mf(lattice, p, 3.0, condensate_lambda(1, 3.0))):
            rec = method(probe)
            assert rec.value.shape == thetas.shape and rec.value.dtype == np.float64
            for theta, value in zip(thetas.tolist(), rec.value.tolist()):
                one = method(ProbeSpec(Ein_Er=ein, theta=theta, mass_ratio=0.7))
                assert isinstance(one.value, np.ndarray) and one.value.shape == (1,)
                assert value == one.value[0]
                assert (rec.channel_count, rec.warning) == (one.channel_count, one.warning)
        for method in (lambda p: inelastic_cs_exact(spectrum, lattice, p),
                       lambda p: inelastic_cs_sce(lattice, p, 10.0)):
            values = method(ProbeSpec(Ein_Er=ein, theta=thetas)).value
            assert [math.copysign(1.0, v) for v in values[[0, 3]]] == [1.0, 1.0]
            assert values[0] == values[3] == 0.0


def fluct_reference(L, nu, u, probe):
    states = boson_states(L, nu * L)
    _, gs = ground_vector(states, u)
    return density_fluctuation(states, gs, elastic_kappa(probe)) / (nu * L)


@pytest.mark.parametrize("L,nu,u", [(4, 1, 1.0), (4, 1, 10.0), (5, 1, 100.0),
                                    (3, 2, 10.0)])
def test_high_energy_limit_is_density_fluctuation(sector_factory, L, nu, u):
    # at Ein far above the band, every weight -> 1 and kappa_n -> kappa_el,
    # so the inelastic sum collapses to the ground-state fluctuation of rho
    probe = ProbeSpec(Ein_Er=1e6, theta=0.99)
    lattice, basis, spectrum = sector_factory(L, nu, u)
    rec = inelastic_cs_exact(spectrum, lattice, probe)
    expected = (fluct_reference(L, nu, u, probe)
                * form_factor(elastic_kappa(probe), lattice.V0_Er) ** 2)
    assert rec.value == pytest.approx(expected, rel=1e-6)


def test_infinite_interaction_kills_inelastic(sector_factory):
    # probe far above the band so channels stay open while the structure
    # weights die off as (J/U)^2
    lattice, basis, spectrum = sector_factory(4, 1, 1e8)
    probe = ProbeSpec(Ein_Er=1e7, theta=0.99)
    rec = inelastic_cs_exact(spectrum, lattice, probe)
    assert rec.channel_count > 0
    assert rec.value < 1e-8
    assert rec.warning == ""


def test_no_open_channels(sector_factory):
    lattice, basis, spectrum = sector_factory(4, 1, 50.0)
    # first excitation costs about U = 50 J = 0.325 E_r; probe below that
    rec = inelastic_cs_exact(spectrum, lattice,
                             ProbeSpec(Ein_Er=0.05, theta=0.99))
    assert rec.value == 0.0
    assert rec.channel_count == 0
    assert rec.warning == "no_open_channels"


def test_inelastic_reference_point(sector_factory):
    lattice, basis, spectrum = sector_factory(3, 1, 5.0)
    rec = inelastic_cs_exact(spectrum, lattice, PROBE)
    assert rec.value == pytest.approx(0.314721626084697, rel=1e-12)
    assert rec.channel_count == 9


def test_inelastic_invariances(sector_factory):
    lattice, basis, spectrum = sector_factory(4, 1, 8.0)
    for ein in (0.1, 0.5, 2.0, 20.0):
        for theta in (0.3, 0.99, 2.0):
            probe = ProbeSpec(Ein_Er=ein, theta=theta)
            rec = inelastic_cs_exact(spectrum, lattice, probe)
            mirrored = inelastic_cs_exact(
                spectrum, lattice, ProbeSpec(Ein_Er=ein, theta=-theta))
            assert rec.value >= 0.0
            # kappa -> -kappa is a reflection; the ring spectrum is parity even
            assert mirrored.value == pytest.approx(rec.value, rel=1e-12, abs=1e-30)


def test_forward_scattering_elastic_peak(sector_factory):
    # theta = 0 means zero momentum transfer: elastic CS = N^2 / N = nu L,
    # independent of the interaction
    for u in (1.0, 10.0):
        lattice, basis, spectrum = sector_factory(4, 1, u)
        rec = elastic_cs_exact(spectrum, lattice,
                               ProbeSpec(Ein_Er=2.0, theta=0.0))
        assert rec.value.shape == (1,)
        assert rec.value[0] == pytest.approx(4.0, rel=1e-12)
        assert rec.channel_count == 1


def test_elastic_reference_point(sector_factory):
    lattice, basis, spectrum = sector_factory(3, 1, 5.0)
    rec = elastic_cs_exact(spectrum, lattice, PROBE)
    assert rec.value.shape == (1,)
    assert rec.value[0] == pytest.approx(0.12898709833438557, rel=1e-12)
    assert rec.channel_count == 1


def test_quadratic_depletion_scaling(sector_factory):
    # weight-free structure sum at fixed kappa_el follows (J/U)^2 deep in the
    # insulator; this is the law behind the exact-CS decay
    kel = elastic_kappa(PROBE)
    sums = []
    us = (60.0, 200.0)
    for u in us:
        lattice, basis, spectrum = sector_factory(5, 1, u)
        q_d = 2.0 * math.pi * spectrum.momentum[1:] / 5
        sums.append((spectrum.weights[1:] * interference(kel, q_d, 5)).sum() / 5)
    slope = (math.log(sums[1]) - math.log(sums[0])) / (math.log(us[1]) - math.log(us[0]))
    assert slope == pytest.approx(-2.0, abs=0.02)


PARITY_SECTORS = ([(L, 1) for L in range(2, 8)]
                  + [(L, 2) for L in range(2, 6)])


@pytest.mark.parametrize("L,nu", PARITY_SECTORS)
@pytest.mark.parametrize("u", [0.0, 1.0, 10.0, 100.0])
def test_momentum_path_matches_dense_oracle(sector_factory, L, nu, u):
    # the full dense solve with its site phase product, against the
    # momentum-block table; nu = 2 stops at L = 5, where the dense sector
    # (dim 1001) is still cheap
    lattice, _, spectrum = sector_factory(L, nu, u)
    energies, table = dense_channel_table(boson_states(L, nu * L), u)
    np.testing.assert_allclose(spectrum.energies_J, energies, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(energies).max()))
    for probe in (PROBE, ProbeSpec(Ein_Er=0.5, theta=0.4),
                  ProbeSpec(Ein_Er=20.0, theta=-2.0)):
        rec = inelastic_cs_exact(spectrum, lattice, probe)
        value, count = dense_inelastic_cs(energies, table, lattice.J_Er,
                                          lattice.V0_Er, probe.Ein_Er,
                                          probe.theta)
        assert rec.channel_count == count
        (got,) = rec.value
        # at E_in = 20 E_r and U/J = 100 every channel sits near kappa = 4 pi,
        # a zero of the lattice sum: the value is 1e-7 to 1e-5 of its
        # phase-aligned size and follows the last bit of kappa.  At L=2 the
        # two paths differ by 1.5e-12 there; against a 40-digit sum the
        # momentum path is off by 2.9e-12 and the dense one by 4.4e-12.
        near_zero = probe.Ein_Er == 20.0 and u == 100.0
        assert got == pytest.approx(value, rel=1e-11 if near_zero else 1e-12)
        (elastic,) = elastic_cs_exact(spectrum, lattice, probe).value
        (kel,) = elastic_kappa(probe)
        dense_elastic = (abs(table[0] @ np.exp(1j * kel * np.arange(L))) ** 2
                         * form_factor(kel, lattice.V0_Er) ** 2 / lattice.N)
        assert elastic == pytest.approx(dense_elastic, rel=1e-12)
