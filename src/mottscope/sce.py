"""Strong-coupling expansion around the Mott insulator.

The lowest excitation manifold is one particle-hole pair on top of the
uniform filling.  Center-of-mass momentum q and relative quantum number
varkappa diagonalize the hopping to first order; energies carry a
second-order closed form.  With the density matrix elements as weights,
the pairs form a lattice channel table that scatter.lattice_channel_sum
sums like the exact spectrum.  All SCE energies are in units of U, with
J_tilde = J/U the small parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_J_ER, LatticeSpec, ProbeSpec
from .errors import DomainError
from .meanfield import bisect_root
from .scatter import (CrossSectionRecord, elastic_kappa, form_factor,
                      lattice_channel_sum)

_QZERO_TOL = 1e-12


def ph_momentum_grids(L: int):
    """Allowed (q d, varkappa d) values for L sites: 2 pi j / L and pi j' / L."""
    q_d = 2.0 * math.pi * np.arange(L) / L
    k_d = math.pi * np.arange(1, L) / L
    return q_d, k_d


def effective_tunneling(q_d, nu: int):
    """Complex pair-hopping amplitude (nu+1) e^{i q d} + nu."""
    return (nu + 1) * np.exp(1j * np.asarray(q_d, dtype=float)) + nu


def tunneling_phase(q_d, nu: int):
    """Branch-safe argument of the pair-hopping amplitude, in (-pi, pi]."""
    return np.angle(effective_tunneling(q_d, nu))


def ph_energy_first_order(q_d, k_d, nu: int):
    """First-order pair energy 2 cos(varkappa d) |T_q| in units of U*J_tilde."""
    return 2.0 * np.cos(np.asarray(k_d, dtype=float)) * np.sqrt(
        1.0 + 4.0 * nu * (nu + 1) * np.cos(np.asarray(q_d, dtype=float) / 2.0) ** 2)


def ph_energy_second_order(q_d, k_d, nu: int, L: int):
    """Second-order pair energy coefficient (closed form, valid for L >= 3).

    Takes broadcastable grids of q d and varkappa d.  The q = 0 branch carries
    two extra terms from the uniform intermediate state; they exactly
    compensate the bracket switch, keeping the energy continuous in q.
    """
    if L < 3:
        raise DomainError(f"second-order pair energy needs L >= 3, got L={L}")
    q_d = np.asarray(q_d, dtype=float)
    k_d = np.asarray(k_d, dtype=float)
    z = tunneling_phase(q_d, nu)
    # q = 0 mask: q within _QZERO_TOL of a multiple of 2 pi
    two_pi = 2.0 * math.pi
    delta = (np.abs(q_d - two_pi * np.rint(q_d / two_pi)) < _QZERO_TOL).astype(float)
    npp = nu * (nu + 1)
    cq = np.cos(q_d)
    out = -2.0 * L * npp + (6.0 * nu * nu + 6.0 * nu + 1.0)
    out -= (4.0 * npp / L) * cq * np.cos(2.0 * z - q_d) \
        * (1.0 + (L - 1) * np.cos(2.0 * k_d))
    out += (2.0 * np.sin(k_d) ** 2 / (3.0 * L)) \
        * (2.0 * npp * (6.0 * cq - 1.0) + 1.0)
    boundary = 4.0 * npp * delta
    boundary -= (2.0 * nu * (nu + 2) / L) * np.cos(z * (L - 2))
    boundary -= (2.0 * (nu * nu - 1) / L) * np.cos(z * (L - 2) + 2.0 * q_d)
    boundary += (4.0 * npp / L) * np.cos(z * (L - 2) + q_d) \
        * ((1.0 - delta) * (1.0 + 2.0 * cq) - (L - 3) * delta)
    return out + np.sin(k_d) * np.sin(k_d * (L - 1)) * boundary


def density_matrix_element(q_d, k_d, nu: int, L: int):
    """Leading-order reduced density amplitude between pair state and ground.

    The full site-resolved matrix element is J_tilde * sqrt(2 nu (nu+1)) / L
    times this quantity, times a pure phase in the site index.  q d and
    varkappa d are broadcastable grids, evaluated elementwise by numpy.
    """
    q_d = np.asarray(q_d, dtype=float)
    k_d = np.asarray(k_d, dtype=float)
    z = tunneling_phase(q_d, nu)
    return -2j * np.sin(k_d) * np.sin(q_d / 2.0) * (
        np.exp(1j * (q_d / 2.0 - z))
        + np.cos(k_d * L) * np.exp(-1j * (q_d / 2.0 + z * (L - 1))))


def inelastic_cs_sce(lattice: LatticeSpec, probe: ProbeSpec,
                     u_over_j: float, gap_order: int = 1) -> CrossSectionRecord:
    """Analytic inelastic cross section from the one-pair manifold.

    The pairs form a lattice channel table, summed like the exact one by
    scatter.lattice_channel_sum: pair (q, varkappa) has excitation energy
    U times its gap, momentum index q and, to leading order, weight
    |<pair|n_0|0>|^2 = J_tilde^2 2 nu (nu+1) / L^2 |M(q, varkappa)|^2.
    |M|^2 carries sin^2(q/2), so the q = 0 pairs weigh exactly 0 and the
    table holds only q != 0.  Past the gap closing, where a pair gap (q = 0
    included) is <= 0, the value is kept and the record warns gap_closed,
    unless no pair is open and it warns no_open_channels.
    """
    if gap_order not in (1, 2):
        raise DomainError(f"gap_order must be 1 or 2, got {gap_order}")
    if u_over_j <= 0:
        raise DomainError("strong-coupling expansion needs U/J > 0")
    L, nu = lattice.L, lattice.nu
    if L < 3:
        raise DomainError(f"strong-coupling pipeline needs L >= 3, got L={L}")
    j_tilde = 1.0 / u_over_j
    q_d, k_d = ph_momentum_grids(L)
    qg = q_d[:, None]
    kg = k_d[None, :]
    gap = 1.0 - j_tilde * ph_energy_first_order(qg, kg, nu)
    if gap_order == 2:
        gap = gap + j_tilde**2 * ph_energy_second_order(qg, kg, nu, L)
    weights = (j_tilde**2 * 2.0 * nu * (nu + 1) / L**2) \
        * np.abs(density_matrix_element(qg[1:], kg, nu, L)) ** 2
    rec = lattice_channel_sum((u_over_j * lattice.J_Er * gap[1:]).ravel(),
                              weights.ravel(), np.repeat(np.arange(1, L), L - 1),
                              lattice, probe)
    if rec.channel_count and gap.min() <= 0.0:
        rec.warning = "gap_closed"
    return rec


def large_l_cs(nu: int, probe: ProbeSpec, V0_Er: float, u_over_j: float,
               J_Er: float = DEFAULT_J_ER) -> CrossSectionRecord:
    """Thermodynamic-limit cross section, valid when E_in clears every pair gap.

    A warning flag is set when E_in/J fails to exceed
    U/J + 2 sqrt(4 nu (nu+1) + 1), the top of the pair band.
    """
    if u_over_j <= 0:
        raise DomainError("strong-coupling expansion needs U/J > 0")
    j_tilde = 1.0 / u_over_j
    values = np.array([
        8.0 * (nu + 1) * math.sin(kappa_el / 2.0) ** 2
        * form_factor(kappa_el, V0_Er) ** 2 * j_tilde**2
        for kappa_el in elastic_kappa(probe).tolist()])
    band_top = u_over_j + 2.0 * math.sqrt(4.0 * nu * (nu + 1) + 1.0)
    warning = "" if probe.Ein_Er / J_Er > band_top else "high_ein_condition"
    return CrossSectionRecord(values, 0, warning)


def _gap_cubic(j_tilde: float, nu: int) -> float:
    return 1.0 - 2.0 * (2 * nu + 1) * j_tilde \
        + (1.0 + 2.0 * nu * (nu + 1)) * j_tilde**2 \
        + 2.0 * nu * (nu * nu + 2.0) * j_tilde**3


def critical_j(nu: int) -> float:
    """Smallest positive root of the thermodynamic-limit gap-closing cubic f.

    In x = nu j, f = 1 - a1 x + a2 x^2 + a3 x^3 with coefficients of order 1
    for any nu.  Its one positive turning point x*, taken free of cancellation
    and overflow, is where f is least on x > 0.  f(0) = 1, and f(2/5) =
    -0.152 - 0.48/nu + 0.416/nu^2 < 0 for nu >= 1, so f(x*) < 0 and the root
    is the one sign change on (0, x*/nu].  bisect_root narrows that bracket
    to about 1e-15 of the root.
    """
    if nu < 1:
        raise DomainError(f"gap cubic needs filling nu >= 1, got {nu}")
    e = 1.0 / nu
    a1, a2, a3 = 4.0 + 2.0 * e, 2.0 + 2.0 * e + e * e, 2.0 + 4.0 * e * e
    x_star = a1 / (a2 + math.sqrt(a2 * a2 + 3.0 * a1 * a3))
    return bisect_root(lambda j: _gap_cubic(j, nu) > 0.0, 0.0, x_star / nu)
