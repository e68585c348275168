"""Site-decoupled mean field with a static condensate coupling.

A single site sees the Hamiltonian h = eps(n) - lambda (a + a^dag) in
units of U, with lambda determined self-consistently.  Near the Mott
boundary lambda is small and a fourth-order expansion in lambda gives it
in closed form; a bracketed root of the self-consistency condition on a
truncated site basis provides the independent cross-check.  The chemical
potential only enters here, through the fixed-density value
mu_FD(nu) = sqrt(nu (nu+1)) - 1.
"""

from __future__ import annotations

import math

import numpy as np

from .config import LatticeSpec, ProbeSpec
from .errors import DomainError
from .scatter import CrossSectionRecord, angle_sums, form_factor, open_channels

LAMBDA_SOURCES = ("perturbative", "iterative")
LAMBDA_VALIDITY = 0.1
_BISECTIONS = 100


def mu_fixed_density(nu: int) -> float:
    """Chemical potential pinning <n> = nu along the mean-field transition."""
    return math.sqrt(nu * (nu + 1.0)) - 1.0


def single_site_energy(n: int, mu_tilde: float) -> float:
    """Unperturbed site energy n(n-1)/2 - mu n in units of U."""
    return 0.5 * n * (n - 1) - mu_tilde * n


def c_coefficient(nu: int, k: int, mu_tilde: float) -> float:
    """Perturbative weight of the nu+k number state in the dressed site state."""
    if k not in (-2, -1, 1, 2):
        raise DomainError(f"coefficient index k must be in {{-2,-1,1,2}}, got {k}")
    if nu + k < 0:
        raise DomainError(f"number state nu+k={nu + k} does not exist")
    if not nu - 1 < mu_tilde < nu:
        raise DomainError(
            f"mu_tilde={mu_tilde} outside the Mott window ({nu - 1}, {nu})")
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
    """Mean-field transition point 1/2 + nu - sqrt(nu (nu+1)) at fixed density.

    Evaluated as 0.25 / (nu + 1/2 + sqrt(nu (nu+1))), free of cancellation.
    """
    return 0.25 / (nu + 0.5 + math.sqrt(nu * (nu + 1.0)))


def lambda_squared(nu: int, j_tilde: float) -> float:
    """Closed-form condensate coupling squared, clamped to zero in the Mott phase."""
    if j_tilde <= 0:
        raise DomainError(f"j_tilde must be positive, got {j_tilde}")
    a, b = coupling_coefficients(nu, mu_fixed_density(nu))
    return max(0.0, -(a + 0.5 / j_tilde) / b)


def bisect_root(above, lo: float, hi: float) -> float:
    """Root in (lo, hi] by bisection; above(x) says the root lies above x.

    Halves until the bracket is 1e-15 of its upper end wide, or _BISECTIONS times.
    """
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def selfconsistent_lambda(nu: int, j_tilde: float) -> float:
    """Root of lambda = 2 J_tilde <a>_lambda on a site truncated at nu+10 bosons.

    On the Mott side, j_tilde <= critical_j_mf(nu), the root is 0.0: only
    the nu+-1 states enter at O(lambda^2), so the truncated site's onset is
    the closed form's.  Above it, f = 2 J_tilde <a> - lambda is positive for
    small lambda and negative at 2 J_tilde sqrt(nu+10), since <a> <
    sqrt(nu+10).  bisect_root narrows that bracket, with <a> from the numpy
    eigh ground state of the site matrix.
    """
    if j_tilde <= 0:
        raise DomainError(f"j_tilde must be positive, got {j_tilde}")
    if j_tilde <= critical_j_mf(nu):
        return 0.0
    ns = np.arange(nu + 11)
    site = np.diag(0.5 * ns * (ns - 1.0) - mu_fixed_density(nu) * ns)
    root = np.sqrt(ns[1:].astype(float))
    hop = np.diag(root, 1) + np.diag(root, -1)

    def above(lam):
        psi = np.linalg.eigh(site - lam * hop)[1][:, 0]
        return 2.0 * j_tilde * float(root @ (psi[:-1] * psi[1:])) > lam

    return bisect_root(above, 0.0, 2.0 * j_tilde * math.sqrt(nu + 10))


def condensate_lambda(nu: int, u_over_j: float,
                      lambda_source: str = "perturbative") -> float:
    """Condensate coupling lambda of a (nu, U/J) unit; 0 in the Mott phase.

    lambda_source picks the closed form (lambda_squared) or the
    self-consistent solver.  lambda depends on nothing else, so a scan
    resolves it once per unit and hands it to inelastic_cs_mf.
    """
    if u_over_j <= 0:
        raise DomainError("mean-field pipeline needs U/J > 0")
    if lambda_source not in LAMBDA_SOURCES:
        raise DomainError(
            f"lambda_source must be one of {LAMBDA_SOURCES}, got {lambda_source!r}")
    j_tilde = 1.0 / u_over_j
    if j_tilde <= critical_j_mf(nu):
        return 0.0
    if lambda_source == "perturbative":
        return math.sqrt(lambda_squared(nu, j_tilde))
    return selfconsistent_lambda(nu, j_tilde)


def inelastic_cs_mf(lattice: LatticeSpec, probe: ProbeSpec, u_over_j: float,
                    lam: float) -> CrossSectionRecord:
    """Mean-field inelastic cross section from the two dressed site channels.

    lam is the unit's condensate coupling from condensate_lambda; with
    lam = 0 (the Mott phase) the cross section is identically zero.  The
    coupling is kept as a perturbation, so the result carries a validity
    warning once lambda > 0.1.
    """
    if u_over_j <= 0:
        raise DomainError("mean-field pipeline needs U/J > 0")
    lam2 = lam**2
    if lam2 == 0.0:
        return CrossSectionRecord(np.zeros(np.size(probe.theta)), 0)
    nu = lattice.nu
    mu = mu_fixed_density(nu)
    eps = single_site_energy(nu, mu)
    gaps = np.array([single_site_energy(nu + 1, mu) - eps,
                     single_site_energy(nu - 1, mu) - eps])
    open_mask, root = open_channels(u_over_j * lattice.J_Er * gaps, probe)
    c2 = np.array([c_coefficient(nu, 1, mu)**2, c_coefficient(nu, -1, mu)**2])
    _, sums = angle_sums(probe, root, lambda kd: (
        root * c2 * form_factor(kd, lattice.V0_Er) ** 2))  # closed: root 0
    open_count = int(open_mask.sum())
    warning = ""
    if open_count == 0:
        warning = "no_open_channels"
    elif lam > LAMBDA_VALIDITY:
        warning = "lambda_validity"
    return CrossSectionRecord(sums * (lam2 / nu), open_count, warning)
