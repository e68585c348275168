"""Site-decoupled mean field: coefficients, condensate onset, cross section."""

import math

import numpy as np
import pytest
import scipy.linalg

from mottscope.config import LatticeSpec, ProbeSpec
from mottscope.errors import DomainError
from mottscope import meanfield as mf

from oracles import mp_selfconsistent_lambda

SQRT2 = math.sqrt(2.0)


def test_mu_fixed_density_frozen():
    assert mf.mu_fixed_density(1) == pytest.approx(SQRT2 - 1.0, abs=0)
    assert mf.mu_fixed_density(1) == pytest.approx(0.41421356237309515, abs=1e-16)
    assert mf.mu_fixed_density(2) == pytest.approx(1.4494897427831779, abs=1e-15)
    # always inside the Mott window (nu-1, nu)
    for nu in range(1, 7):
        assert nu - 1 < mf.mu_fixed_density(nu) < nu


def test_single_site_energies_and_window():
    mu = mf.mu_fixed_density(1)
    eps = mf.single_site_energy(1, mu)
    delta_plus = mf.single_site_energy(2, mu) - eps
    delta_minus = mf.single_site_energy(0, mu) - eps
    assert eps == pytest.approx(-mu, abs=0)
    assert delta_plus == pytest.approx(1.0 - mu, abs=1e-15)
    assert delta_minus == pytest.approx(mu, abs=1e-15)
    # both excitation gaps open inside the lobe
    assert delta_plus > 0 and delta_minus > 0
    with pytest.raises(DomainError, match="Mott window"):
        mf.c_coefficient(1, 1, 1.5)
    with pytest.raises(DomainError, match="Mott window"):
        mf.c_coefficient(2, 1, 0.7)


def test_c_coefficient_unit_filling():
    mu = mf.mu_fixed_density(1)
    # both single-excitation weights collapse to -(1+sqrt(2)) at this mu
    assert mf.c_coefficient(1, 1, mu) == pytest.approx(-(1.0 + SQRT2), abs=1e-14)
    assert mf.c_coefficient(1, -1, mu) == pytest.approx(-(1.0 + SQRT2), abs=1e-14)
    assert mf.c_coefficient(1, 1, mu) == pytest.approx(-2.414213562373096, abs=1e-14)


def test_c_coefficient_domain():
    mu = mf.mu_fixed_density(1)
    with pytest.raises(DomainError, match="k must be"):
        mf.c_coefficient(1, 3, mu)
    with pytest.raises(DomainError, match="k must be"):
        mf.c_coefficient(1, 0, mu)
    with pytest.raises(DomainError, match="does not exist"):
        mf.c_coefficient(1, -2, mu)  # would need a -1 boson state
    with pytest.raises(DomainError, match="Mott window"):
        mf.c_coefficient(1, 1, 1.2)


def test_perturbed_site_amplitudes_match_coefficients():
    # ground state of eps(n) - lam (a + a^dag) on a truncated chain of
    # number states; the linear response of the nu+k amplitude is -c_k
    lam = 1e-3
    for nu in (1, 2):
        mu = mf.mu_fixed_density(nu)
        n = np.arange(nu + 12)
        diag = 0.5 * n * (n - 1.0) - mu * n
        off = -lam * np.sqrt(n[1:].astype(float))
        _, vec = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(0, 0))
        gs = vec[:, 0]
        if gs[nu] < 0:
            gs = -gs
        assert gs[nu] == pytest.approx(1.0, abs=1e-4)
        ks = (-1, 1, 2) if nu == 1 else (-2, -1, 1, 2)
        for k in ks:
            slope = gs[nu + k] / lam if k in (-1, 1) else gs[nu + k] / lam**2
            want = -mf.c_coefficient(nu, k, mu)
            if k in (-1, 1):
                assert slope == pytest.approx(want, rel=1e-4)
            else:
                # second order: sign and rough size only
                assert slope * want > 0


def test_coupling_coefficients_frozen():
    a1, b1 = mf.coupling_coefficients(1, mf.mu_fixed_density(1))
    assert a1 == pytest.approx(-(3.0 + 2.0 * SQRT2), abs=1e-13)
    assert a1 == pytest.approx(-5.828427124746191, abs=1e-13)
    assert b1 == pytest.approx(25.9186656311884, rel=1e-12)
    a2, b2 = mf.coupling_coefficients(2, mf.mu_fixed_density(2))
    assert a2 == pytest.approx(-9.898979485566356, abs=1e-13)
    assert b2 == pytest.approx(73.93096518440746, rel=1e-12)
    # quartic term must be positive or the expansion has no minimum
    assert b1 > 0 and b2 > 0


def test_critical_j_mf_frozen():
    assert mf.critical_j_mf(1) == pytest.approx(1.5 - SQRT2, abs=1e-16)
    # the correctly rounded values of 0.0857864376269049512 and
    # 0.0505102572168219018, which 1/2 + nu - sqrt(nu (nu+1)) misses by
    # 1.0e-16 and 2.2e-16 through cancellation
    assert mf.critical_j_mf(1) == 0.08578643762690495
    assert mf.critical_j_mf(2) == 0.050510257216821904
    assert 1.0 / mf.critical_j_mf(1) == pytest.approx(11.656854249492394, abs=1e-12)
    assert 1.0 / mf.critical_j_mf(2) == pytest.approx(19.797958971132626, abs=1e-12)


def test_critical_j_matches_quadratic_root():
    # the transition point is where A + 1/(2 j) crosses zero
    for nu in (1, 2, 3):
        jc = mf.critical_j_mf(nu)
        a, _ = mf.coupling_coefficients(nu, mf.mu_fixed_density(nu))
        assert a + 0.5 / jc == pytest.approx(0.0, abs=1e-10)


def test_lambda_squared_onset():
    for nu in (1, 2):
        jc = mf.critical_j_mf(nu)
        assert mf.lambda_squared(nu, jc) == pytest.approx(0.0, abs=1e-12)
        assert mf.lambda_squared(nu, 0.9 * jc) == 0.0
        # continuous growth from zero on the superfluid side
        prev = 0.0
        for step in (1e-6, 1e-4, 1e-2):
            cur = mf.lambda_squared(nu, jc * (1.0 + step))
            assert cur > prev
            prev = cur
        assert mf.lambda_squared(nu, jc * (1.0 + 1e-6)) < 1e-4


def test_lambda_squared_frozen():
    assert mf.lambda_squared(1, 0.09) == pytest.approx(0.01052799449915678, rel=1e-12)
    with pytest.raises(DomainError, match="positive"):
        mf.lambda_squared(1, 0.0)


def test_selfconsistent_lambda_frozen():
    assert mf.selfconsistent_lambda(1, 0.09) == pytest.approx(0.0496686044557347, rel=1e-9)
    # the Mott side, up to and including the threshold, is exactly zero
    assert mf.selfconsistent_lambda(1, 0.08) == 0.0
    assert mf.selfconsistent_lambda(2, 0.045) == 0.0
    assert mf.selfconsistent_lambda(2, 0.05) == 0.0
    for nu in (1, 2):
        assert mf.selfconsistent_lambda(nu, mf.critical_j_mf(nu)) == 0.0


@pytest.mark.parametrize("nu", [1, 2])
def test_selfconsistent_lambda_matches_mp_root(nu):
    # test_12's grid from 1.0005 to 1.06 J~c, where the map's slope at the
    # root nears 1, and two points deep in the superfluid
    jc = mf.critical_j_mf(nu)
    grid = [float(j) for j in np.linspace(1.0005 * jc, 1.06 * jc, 12)]
    worst = 0.0
    for j in grid + [0.09, 0.125]:
        want = mp_selfconsistent_lambda(nu, j)
        worst = max(worst, float(abs(mf.selfconsistent_lambda(nu, j) - want) / want))
    print(f"measured: nu={nu} worst relative gap to the mpmath root {worst:.2e}")
    assert worst < 1e-10


def test_selfconsistent_truncation_insensitive():
    # the package truncates the site at nu+10 bosons; twice that moves the
    # root by less than 1e-10
    base = mf.selfconsistent_lambda(1, 0.125)
    wide = mp_selfconsistent_lambda(1, 0.125, n_max=21)
    assert base == pytest.approx(0.17120187178827204, rel=1e-10)
    assert abs(base - wide) < 1e-10


def test_perturbative_overshoots_iterative():
    # quartic truncation overestimates lambda well inside the superfluid;
    # the two solvers still agree on the onset point
    lam_pert = math.sqrt(mf.lambda_squared(1, 0.09))
    lam_iter = mf.selfconsistent_lambda(1, 0.09)
    assert 2.0 < lam_pert / lam_iter < 2.3


def test_mf_context_fields():
    # the mean-field state inelastic_cs_mf builds at U/J = 8: lambda, the
    # two channel weights and the two gaps, all at mu_FD
    mu = mf.mu_fixed_density(1)
    assert mu == pytest.approx(SQRT2 - 1.0, abs=0)
    lam = math.sqrt(mf.lambda_squared(1, 0.125))
    assert lam == pytest.approx(0.2656027138457163, rel=1e-12)
    assert mf.c_coefficient(1, 1, mu) == pytest.approx(-(1.0 + SQRT2), abs=1e-14)
    assert mf.c_coefficient(1, -1, mu) == pytest.approx(-(1.0 + SQRT2), abs=1e-14)
    eps = mf.single_site_energy(1, mu)
    assert mf.single_site_energy(2, mu) - eps == pytest.approx(2.0 - SQRT2, abs=1e-15)
    assert mf.single_site_energy(0, mu) - eps == pytest.approx(SQRT2 - 1.0, abs=1e-15)
    # the cross section is those pieces put together
    kappa_el = -math.pi * math.sin(0.99) * math.sqrt(2.0)
    value = 0.0
    for c, delta in ((mf.c_coefficient(1, 1, mu), 2.0 - SQRT2),
                     (mf.c_coefficient(1, -1, mu), SQRT2 - 1.0)):
        root = math.sqrt(1.0 - 8.0 * 6.5e-3 * delta / 2.0)
        value += root * c**2 * math.exp(-(kappa_el * root)**2
                                        / (2.0 * math.pi**2 * math.sqrt(15.0)))
    assert mf.condensate_lambda(1, 8.0) == lam
    rec = mf.inelastic_cs_mf(MF_LATTICE, MF_PROBE, 8.0, lam)
    assert rec.value == pytest.approx(value * lam**2, rel=1e-12)


MF_LATTICE = LatticeSpec(L=8, nu=1)
MF_PROBE = ProbeSpec(theta=0.99, Ein_Er=2.0)


def cs_mf(probe, u, lambda_source="perturbative"):
    """The mean-field cross section as a scan computes it: lambda, then the sum."""
    return mf.inelastic_cs_mf(MF_LATTICE, probe, u,
                              mf.condensate_lambda(1, u, lambda_source))


def test_inelastic_cs_mf_frozen_perturbative():
    rec = cs_mf(MF_PROBE, 8.0)
    assert rec.value == pytest.approx(0.6836727570627674, rel=1e-12)
    assert rec.channel_count == 2
    assert rec.warning == "lambda_validity"


def test_inelastic_cs_mf_frozen_iterative():
    rec = cs_mf(MF_PROBE, 8.0, "iterative")
    assert rec.value == pytest.approx(0.2840535853262863, rel=1e-9)
    assert rec.channel_count == 2
    assert rec.warning == "lambda_validity"


def test_inelastic_cs_mf_channel_closure():
    u = 8.0
    # particle channel closes first: U delta_+ > U delta_-
    rec = cs_mf(ProbeSpec(theta=0.99, Ein_Er=0.025), u)
    assert rec.channel_count == 1
    assert rec.value == pytest.approx(0.15293431956867098, rel=1e-12)
    rec = cs_mf(ProbeSpec(theta=0.99, Ein_Er=0.01), u)
    assert rec.channel_count == 0
    assert rec.value == 0.0
    assert rec.warning == "no_open_channels"


def test_inelastic_cs_mf_mott_phase_zero():
    for u in (11.66, 50.0, 300.0):
        assert mf.condensate_lambda(1, u) == 0.0
        rec = cs_mf(MF_PROBE, u)
        assert rec.value == 0.0
        assert rec.channel_count == 0
        assert rec.warning == ""


def test_inelastic_cs_mf_domain():
    with pytest.raises(DomainError, match="lambda_source"):
        mf.condensate_lambda(1, 8.0, "closed_form")
    with pytest.raises(DomainError, match="lambda_source"):
        # validated even when the Mott branch would short-circuit
        mf.condensate_lambda(1, 50.0, "closed_form")
    with pytest.raises(DomainError, match="U/J"):
        mf.condensate_lambda(1, 0.0)
    with pytest.raises(DomainError, match="U/J"):
        mf.inelastic_cs_mf(MF_LATTICE, MF_PROBE, 0.0, 0.0)
