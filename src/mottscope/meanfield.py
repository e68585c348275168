"""Site-decoupled mean field with a static condensate coupling.

A single site sees the Hamiltonian h = eps(n) - lambda (a + a^dag) in
units of U, with lambda determined self-consistently.  Near the Mott
boundary lambda is small and a fourth-order expansion in lambda gives it
in closed form; an iterative solver on a truncated site basis provides
the independent cross-check.  The chemical potential only enters here,
through the fixed-density value mu_FD(nu) = sqrt(nu (nu+1)) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import InteractionSpec, LatticeSpec, ProbeSpec
from .errors import DomainError, NonConvergenceError
from .scatter import CrossSectionRecord, _echo, form_factor, open_channels

LAMBDA_SOURCES = ("perturbative", "iterative")
LAMBDA_VALIDITY = 0.1
_COLLAPSE_FLOOR = 1e-10
_MAX_ITER = 100_000


def mu_fixed_density(nu: int) -> float:
    """Chemical potential pinning <n> = nu along the mean-field transition."""
    return math.sqrt(nu * (nu + 1.0)) - 1.0


def single_site_energy(n: int, mu_tilde: float) -> float:
    """Unperturbed site energy n(n-1)/2 - mu n in units of U."""
    return 0.5 * n * (n - 1) - mu_tilde * n


def _check_mu_window(nu: int, mu_tilde: float) -> None:
    if not nu - 1 < mu_tilde < nu:
        raise DomainError(
            f"mu_tilde={mu_tilde} outside the Mott window ({nu - 1}, {nu})")


@dataclass
class SingleSiteEnergies:
    """Site energy at filling nu and the particle/hole excitation gaps."""

    eps: float
    delta_plus: float
    delta_minus: float


def single_site_energies(nu: int, mu_tilde: float) -> SingleSiteEnergies:
    _check_mu_window(nu, mu_tilde)
    eps = single_site_energy(nu, mu_tilde)
    return SingleSiteEnergies(
        eps=eps,
        delta_plus=single_site_energy(nu + 1, mu_tilde) - eps,
        delta_minus=single_site_energy(nu - 1, mu_tilde) - eps,
    )


def c_coefficient(nu: int, k: int, mu_tilde: float) -> float:
    """Perturbative weight of the nu+k number state in the dressed site state."""
    if k not in (-2, -1, 1, 2):
        raise DomainError(f"coefficient index k must be in {{-2,-1,1,2}}, got {k}")
    if nu + k < 0:
        raise DomainError(f"number state nu+k={nu + k} does not exist")
    _check_mu_window(nu, mu_tilde)
    if k > 0:
        numerator = math.sqrt(nu + k)
    else:
        numerator = math.sqrt(nu + k + 1)
    return numerator / (single_site_energy(nu, mu_tilde)
                        - single_site_energy(nu + k, mu_tilde))


def coupling_coefficients(nu: int, mu_tilde: float):
    """Quadratic and quartic coefficients (A, B) of the site energy in lambda.

    The nu-2 branch only exists for nu >= 2; its weight carries an explicit
    sqrt(nu-1) factor, so it drops out cleanly at unit filling.
    """
    c_m1 = c_coefficient(nu, -1, mu_tilde)
    c_p1 = c_coefficient(nu, 1, mu_tilde)
    a = math.sqrt(nu) * c_m1 + math.sqrt(nu + 1.0) * c_p1
    b = math.sqrt(nu + 2.0) * c_p1**2 * c_coefficient(nu, 2, mu_tilde)
    if nu >= 2:
        b += math.sqrt(nu - 1.0) * c_m1**2 * c_coefficient(nu, -2, mu_tilde)
    b -= 0.5 * a * (c_m1**2 + c_p1**2)
    return a, b


def critical_j_mf(nu: int) -> float:
    """Mean-field transition point 1/2 + nu - sqrt(nu (nu+1)) at fixed density."""
    return 0.5 + nu - math.sqrt(nu * (nu + 1.0))


def lambda_squared(nu: int, j_tilde: float, mu_tilde: float | None = None) -> float:
    """Closed-form condensate coupling squared, clamped to zero in the Mott phase."""
    if j_tilde <= 0:
        raise DomainError(f"j_tilde must be positive, got {j_tilde}")
    if mu_tilde is None:
        mu_tilde = mu_fixed_density(nu)
    a, b = coupling_coefficients(nu, mu_tilde)
    return max(0.0, -(a + 0.5 / j_tilde) / b)


def selfconsistent_lambda(nu: int, j_tilde: float, mu_tilde: float | None = None,
                          n_max: int | None = None) -> float:
    """Damped fixed-point solution of lambda = 2 J_tilde <a> on a truncated site.

    Returns 0.0 once the iteration collapses below 1e-10; raises
    NonConvergenceError after 1e5 sweeps without meeting the 1e-12 step
    criterion.
    """
    if j_tilde <= 0:
        raise DomainError(f"j_tilde must be positive, got {j_tilde}")
    if mu_tilde is None:
        mu_tilde = mu_fixed_density(nu)
    _check_mu_window(nu, mu_tilde)
    if n_max is None:
        n_max = nu + 10
    if n_max < nu + 4:
        raise DomainError(f"n_max={n_max} too small, need at least nu+4")
    ns = np.arange(n_max + 1)
    diag = 0.5 * ns * (ns - 1.0) - mu_tilde * ns
    root = np.sqrt(ns[1:].astype(float))
    lam = 0.1
    for _ in range(_MAX_ITER):
        _, vec = scipy.linalg.eigh_tridiagonal(
            diag, -lam * root, select="i", select_range=(0, 0))
        psi = vec[:, 0]
        if psi[np.argmax(np.abs(psi))] < 0:
            psi = -psi
        a_expect = float(np.sum(root * psi[:-1] * psi[1:]))
        lam_next = 0.5 * lam + 0.5 * (2.0 * j_tilde * a_expect)
        if lam_next < _COLLAPSE_FLOOR:
            return 0.0
        if abs(lam_next - lam) < 1e-12:
            return lam_next
        lam = lam_next
    raise NonConvergenceError(
        f"no fixed point after {_MAX_ITER} sweeps at nu={nu}, j_tilde={j_tilde}")


@dataclass
class MFContext:
    """Mean-field state at one coupling: lambda, weights, and gaps."""

    nu: int
    mu_tilde: float
    j_tilde: float
    lambda_tilde: float
    c_plus: float
    c_minus: float
    delta_plus: float
    delta_minus: float


def _check_lambda_source(lambda_source: str) -> None:
    if lambda_source not in LAMBDA_SOURCES:
        raise DomainError(
            f"lambda_source must be one of {LAMBDA_SOURCES}, got {lambda_source!r}")


def mf_context(nu: int, j_tilde: float, mu_tilde: float | None = None,
               lambda_source: str = "perturbative") -> MFContext:
    _check_lambda_source(lambda_source)
    if mu_tilde is None:
        mu_tilde = mu_fixed_density(nu)
    if lambda_source == "perturbative":
        lam = math.sqrt(lambda_squared(nu, j_tilde, mu_tilde))
    else:
        lam = selfconsistent_lambda(nu, j_tilde, mu_tilde)
    gaps = single_site_energies(nu, mu_tilde)
    return MFContext(
        nu=nu, mu_tilde=mu_tilde, j_tilde=j_tilde, lambda_tilde=lam,
        c_plus=c_coefficient(nu, 1, mu_tilde),
        c_minus=c_coefficient(nu, -1, mu_tilde),
        delta_plus=gaps.delta_plus,
        delta_minus=gaps.delta_minus,
    )


def inelastic_cs_mf(lattice: LatticeSpec, probe: ProbeSpec, u: InteractionSpec,
                    lambda_source: str = "perturbative") -> CrossSectionRecord:
    """Mean-field inelastic cross section from the two dressed site channels.

    Identically zero in the Mott phase.  The condensate coupling is kept as
    a perturbation, so the result carries a validity warning once
    lambda > 0.1.
    """
    if u.U_over_J <= 0:
        raise DomainError("mean-field pipeline needs U/J > 0")
    _check_lambda_source(lambda_source)
    nu = lattice.nu
    j_tilde = 1.0 / u.U_over_J
    params = _echo(lattice, probe, u.U_over_J)
    params["lambda_source"] = lambda_source
    if j_tilde <= critical_j_mf(nu):
        return CrossSectionRecord("mf", 0.0, 0, params)
    ctx = mf_context(nu, j_tilde, lambda_source=lambda_source)
    lam2 = ctx.lambda_tilde**2
    if lam2 == 0.0:
        return CrossSectionRecord("mf", 0.0, 0, params)
    open_mask, root, kappa_d = open_channels(
        u.U_Er(lattice.J_Er) * np.array([ctx.delta_plus, ctx.delta_minus]), probe)
    c2 = np.array([ctx.c_plus**2, ctx.c_minus**2])
    terms = root * c2 * form_factor(kappa_d, lattice.V0_Er) ** 2  # closed: root 0
    open_count = int(open_mask.sum())
    value = float(terms.sum()) * (lam2 / nu)
    warning = ""
    if open_count == 0:
        warning = "no_open_channels"
    elif ctx.lambda_tilde > LAMBDA_VALIDITY:
        warning = "lambda_validity"
    return CrossSectionRecord("mf", value, open_count, params, warning=warning)
