"""Strong-coupling expansion around the Mott insulator.

The lowest excitation manifold is one particle-hole pair on top of the
uniform filling.  Center-of-mass momentum q and relative quantum number
varkappa diagonalize the hopping to first order; energies carry a
second-order closed form, and the density matrix elements feed the
analytic cross section.  All SCE energies are in units of U, with
J_tilde = J/U the small parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_J_ER, InteractionSpec, LatticeSpec, ProbeSpec
from .errors import DomainError, NoRootError
from .scatter import (CrossSectionRecord, _echo, _lattice_sum, elastic_kappa,
                      form_factor, open_channels)

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
    z = np.angle(effective_tunneling(q_d, nu))
    return z if np.ndim(z) else float(z)


def ph_energy_first_order(q_d, k_d, nu: int):
    """First-order pair energy 2 cos(varkappa d) |T_q| in units of U*J_tilde."""
    out = 2.0 * np.cos(np.asarray(k_d, dtype=float)) * np.sqrt(
        1.0 + 4.0 * nu * (nu + 1) * np.cos(np.asarray(q_d, dtype=float) / 2.0) ** 2)
    return out if np.ndim(out) else float(out)


def ph_energy_second_order(q_d, k_d, nu: int, L: int, _force_delta=None):
    """Second-order pair energy coefficient (closed form, valid for L >= 3).

    Accepts scalars or broadcastable numpy grids.  The q = 0 branch carries
    two extra terms from the uniform intermediate state; they exactly
    compensate the bracket switch, keeping the energy continuous in q.  The
    _force_delta knob exists only so tests can check that compensation term
    by term.
    """
    if L < 3:
        raise DomainError(f"second-order pair energy needs L >= 3, got L={L}")
    q_d = np.asarray(q_d, dtype=float)
    k_d = np.asarray(k_d, dtype=float)
    z = np.angle(effective_tunneling(q_d, nu))
    if _force_delta is None:
        # q = 0 mask: q within _QZERO_TOL of a multiple of 2 pi
        two_pi = 2.0 * math.pi
        delta = (np.abs(q_d - two_pi * np.rint(q_d / two_pi)) < _QZERO_TOL).astype(float)
    else:
        delta = float(_force_delta)
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
    out += np.sin(k_d) * np.sin(k_d * (L - 1)) * boundary
    return out if out.ndim else float(out)


def density_matrix_element(q_d, k_d, nu: int, L: int):
    """Leading-order reduced density amplitude between pair state and ground.

    The full site-resolved matrix element is J_tilde * sqrt(2 nu (nu+1)) / L
    times this quantity, times a pure phase in the site index.  Two scalars
    take a math-module path that skips numpy's 0-d array overhead.
    """
    if isinstance(q_d, (int, float)) and isinstance(k_d, (int, float)):
        q, k = float(q_d), float(k_d)
        z = math.atan2((nu + 1) * math.sin(q), (nu + 1) * math.cos(q) + nu)
        a, b = 0.5 * q - z, -(0.5 * q + z * (L - 1))
        return -2j * math.sin(k) * math.sin(0.5 * q) * (
            complex(math.cos(a), math.sin(a))
            + math.cos(k * L) * complex(math.cos(b), math.sin(b)))
    q_d = np.asarray(q_d, dtype=float)
    k_d = np.asarray(k_d, dtype=float)
    z = np.angle(effective_tunneling(q_d, nu))
    out = -2j * np.sin(k_d) * np.sin(q_d / 2.0) * (
        np.exp(1j * (q_d / 2.0 - z))
        + np.cos(k_d * L) * np.exp(-1j * (q_d / 2.0 + z * (L - 1))))
    return out if out.ndim else complex(out)


def inelastic_cs_sce(lattice: LatticeSpec, probe: ProbeSpec,
                     u: InteractionSpec, gap_order: int = 1) -> CrossSectionRecord:
    """Analytic inelastic cross section from the one-pair manifold."""
    if gap_order not in (1, 2):
        raise DomainError(f"gap_order must be 1 or 2, got {gap_order}")
    if u.U_over_J <= 0:
        raise DomainError("strong-coupling expansion needs U/J > 0")
    L, nu = lattice.L, lattice.nu
    if L < 3:
        raise DomainError(f"strong-coupling pipeline needs L >= 3, got L={L}")
    j_tilde = 1.0 / u.U_over_J
    q_d, k_d = ph_momentum_grids(L)
    qg = q_d[:, None]
    kg = k_d[None, :]
    gap = 1.0 - j_tilde * ph_energy_first_order(qg, kg, nu)
    if gap_order == 2:
        gap = gap + j_tilde**2 * ph_energy_second_order(qg, kg, nu, L)
    open_mask, root, kappa_d = open_channels(u.U_Er(lattice.J_Er) * gap, probe)
    m2 = np.abs(density_matrix_element(qg, kg, nu, L)) ** 2
    # closed channels have root 0, so they add nothing
    terms = (root * m2 * _lattice_sum(kappa_d, np.arange(L)[:, None], L)
             * form_factor(kappa_d, lattice.V0_Er) ** 2)
    value = float(j_tilde**2 * 2.0 * (nu + 1) / L**3 * terms.sum())
    params = _echo(lattice, probe, u.U_over_J)
    params["gap_order"] = gap_order
    warning = "" if open_mask.any() else "no_open_channels"
    channel_count = int((open_mask & (m2 > 0.0)).sum())
    return CrossSectionRecord("sce", value, channel_count, params, warning=warning)


def large_l_cs(nu: int, probe: ProbeSpec, V0_Er: float, u: InteractionSpec,
               J_Er: float = DEFAULT_J_ER) -> CrossSectionRecord:
    """Thermodynamic-limit cross section, valid when E_in clears every pair gap.

    A warning flag is set when E_in/J fails to exceed
    U/J + 2 sqrt(4 nu (nu+1) + 1), the top of the pair band.
    """
    if u.U_over_J <= 0:
        raise DomainError("strong-coupling expansion needs U/J > 0")
    j_tilde = 1.0 / u.U_over_J
    kappa_el = elastic_kappa(probe)
    value = float(8.0 * (nu + 1) * math.sin(kappa_el / 2.0) ** 2
                  * form_factor(kappa_el, V0_Er) ** 2 * j_tilde**2)
    band_top = u.U_over_J + 2.0 * math.sqrt(4.0 * nu * (nu + 1) + 1.0)
    warning = "" if probe.Ein_Er / J_Er > band_top else "high_ein_condition"
    params = {"nu": nu, "V0_Er": V0_Er, "J_Er": J_Er,
              "Ein_Er": probe.Ein_Er, "theta": probe.theta,
              "mass_ratio": probe.mass_ratio, "u_over_j": u.U_over_J}
    return CrossSectionRecord("sce_largeL", value, 0, params, warning=warning)


def energy_gap(j_tilde: float, L: int, nu: int) -> float:
    """Finite-size pair gap in units of U, through second order in J_tilde."""
    npp = nu * (nu + 1)
    second = 1.0 + 2.0 * npp * (3.0 - 2.0 * math.cos(2.0 * math.pi / L)) \
        + (4.0 / (3.0 * L)) * math.sin(math.pi / L) ** 2 * (5.0 * npp + 2.0)
    return 1.0 - 2.0 * math.cos(math.pi / L) * math.sqrt(1.0 + 4.0 * npp) \
        * j_tilde + second * j_tilde**2


def _gap_cubic(j_tilde: float, nu: int) -> float:
    return 1.0 - 2.0 * (2 * nu + 1) * j_tilde \
        + (1.0 + 2.0 * nu * (nu + 1)) * j_tilde**2 \
        + 2.0 * nu * (nu * nu + 2.0) * j_tilde**3


def critical_j(nu: int, scan_step: float = 1e-4, scan_stop: float = 2.0,
               tol: float = 1e-12) -> float:
    """Smallest positive root of the thermodynamic-limit gap-closing cubic."""
    prev = _gap_cubic(0.0, nu)
    x = scan_step
    while x <= scan_stop:
        cur = _gap_cubic(x, nu)
        if cur == 0.0:
            return x
        if (prev > 0.0) != (cur > 0.0):
            lo, hi = x - scan_step, x
            flo = prev
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = _gap_cubic(mid, nu)
                if (flo > 0.0) != (fmid > 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fmid
            return 0.5 * (lo + hi)
        prev = cur
        x += scan_step
    raise NoRootError(f"gap cubic has no root in (0, {scan_stop}] for nu={nu}")
