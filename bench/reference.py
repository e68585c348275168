"""Independent references for the benchmark's output checks.

Nothing here imports mottscope.  Each function recomputes a quantity the
CLI prints, by a route that shares no code with the package:

- a dense exact diagonalization built from a recursive basis enumeration
  and a dict-indexed Hamiltonian, with its own open-channel sum;
- the kinematics-aware thermodynamic limit of the strong-coupling sum;
- a bracketing root find of the mean-field self-consistency condition;
- direct evaluation of the gap-closing cubic and the mean-field closed form.

The physical constants are the CLI defaults, restated here on purpose:
a change of default shows up as a failed check, not as a silent shift.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

V0_ER = 15.0
J_ER = 6.5e-3
MASS_RATIO = 1.0


def elastic_kappa(theta: float, ein: float) -> float:
    return -math.pi * math.sin(theta) * math.sqrt(MASS_RATIO * ein)


def form_factor_sq(kappa):
    return np.exp(-2.0 * np.asarray(kappa) ** 2
                  / (4.0 * math.pi ** 2 * math.sqrt(V0_ER)))


# --- exact diagonalization -------------------------------------------------

def _boson_states(L: int, N: int) -> list[tuple[int, ...]]:
    states = []

    def rec(prefix, left):
        if len(prefix) == L - 1:
            states.append(prefix + (left,))
            return
        for n in range(left + 1):
            rec(prefix + (n,), left - n)

    rec((), N)
    return states


@lru_cache(maxsize=4)
def _sector(L: int, N: int):
    """Occupations, on-site interaction diagonal and hopping matrix (units of J)."""
    states = _boson_states(L, N)
    index = {s: i for i, s in enumerate(states)}
    hop = np.zeros((len(states), len(states)))
    bonds = {tuple(sorted((j, (j + 1) % L))) for j in range(L)}
    for s, i in index.items():
        for a, b in bonds:
            for src, dst in ((a, b), (b, a)):
                if s[src] == 0:
                    continue
                t = list(s)
                amp = math.sqrt(t[src] * (t[dst] + 1))
                t[src] -= 1
                t[dst] += 1
                hop[index[tuple(t)], i] -= amp
    occ = np.array(states, dtype=float)
    interaction = 0.5 * (occ * (occ - 1.0)).sum(axis=1)
    return occ, interaction, hop


@lru_cache(maxsize=32)
def _ed(L: int, nu: int, u_over_j: float):
    """Eigenvalues (units of J) and the table <n|n_j|0> of one sector."""
    occ, interaction, hop = _sector(L, nu * L)
    w, v = np.linalg.eigh(hop + np.diag(u_over_j * interaction))
    me = v.T @ (occ * v[:, :1])
    return w, me


def exact_row(L: int, nu: int, u_over_j: float, theta: float,
              ein: float) -> tuple[float, int]:
    """(cross section per particle, open excitation channels) by dense ED."""
    w, me = _ed(L, nu, u_over_j)
    radicand = 1.0 - (w[1:] - w[0]) * J_ER / ein
    open_ = radicand >= 0.0
    r = radicand[open_]
    kappa = elastic_kappa(theta, ein) * np.sqrt(r)
    phases = np.exp(1j * kappa[:, None] * np.arange(L)[None, :])
    amplitude = (phases * me[1:][open_]).sum(axis=1)
    value = float((np.sqrt(r) * np.abs(amplitude) ** 2
                   * form_factor_sq(kappa)).sum() / (nu * L))
    return value, int(open_.sum())


# --- strong coupling --------------------------------------------------------

def sce_limit(nu: int, u_over_j: float, theta: float, ein: float) -> float:
    """sqrt(r) 8 (nu+1) sin^2(kappa/2) W(kappa)^2 J~^2, kappa = kappa_el sqrt(r)."""
    r = 1.0 - u_over_j * J_ER / ein
    kappa = elastic_kappa(theta, ein) * math.sqrt(r)
    return float(math.sqrt(r) * 8.0 * (nu + 1) * math.sin(kappa / 2.0) ** 2
                 * form_factor_sq(kappa) / u_over_j ** 2)


def gap_cubic(nu: int, j: float) -> float:
    """Thermodynamic-limit particle-hole gap in units of U, as a cubic in J/U."""
    return (1.0 - 2.0 * (2 * nu + 1) * j + (1.0 + 2.0 * nu * (nu + 1)) * j ** 2
            + 2.0 * nu * (nu * nu + 2.0) * j ** 3)


def smallest_cubic_root(nu: int) -> float:
    roots = np.roots([2.0 * nu * (nu * nu + 2.0), 1.0 + 2.0 * nu * (nu + 1),
                      -2.0 * (2 * nu + 1), 1.0])
    real = [x.real for x in roots if abs(x.imag) < 1e-12 and x.real > 0]
    return min(real)


# --- mean field -------------------------------------------------------------

def mf_critical_j(nu: int) -> float:
    return 0.5 + nu - math.sqrt(nu * (nu + 1.0))


def _site_energy(n: int, mu: float) -> float:
    return 0.5 * n * (n - 1) - mu * n


def _mu(nu: int) -> float:
    return math.sqrt(nu * (nu + 1.0)) - 1.0


def _condensate_amplitude(lam: float, nu: int, n_max: int) -> float:
    """<a> in the ground state of eps(n) - lam (a + a^dag), n <= n_max."""
    ns = np.arange(n_max + 1)
    h = np.diag(0.5 * ns * (ns - 1.0) - _mu(nu) * ns)
    off = np.sqrt(ns[1:].astype(float))
    h -= lam * (np.diag(off, 1) + np.diag(off, -1))
    _, v = np.linalg.eigh(h)
    psi = v[:, 0]
    return abs(float(np.sum(off * psi[:-1] * psi[1:])))


@lru_cache(maxsize=64)
def mf_lambda(nu: int, u_over_j: float) -> float:
    """Root of lam = 2 J~ <a>_lam on the site truncated at nu + 10 bosons."""
    j = 1.0 / u_over_j
    if j <= mf_critical_j(nu):
        return 0.0
    n_max = nu + 10

    def f(lam):
        return 2.0 * j * _condensate_amplitude(lam, nu, n_max) - lam

    lo, hi = 1e-9, 0.05
    while f(hi) > 0.0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-16, rtol=1e-15)


def mf_channel_weight(nu: int, u_over_j: float, theta: float,
                      ein: float) -> tuple[float, int]:
    """(sum over open dressed-site channels of sqrt(r) c^2 W^2, open count).

    The mean-field cross section is lam^2 / nu times this weight.
    """
    mu = _mu(nu)
    eps = _site_energy(nu, mu)
    channels = [(_site_energy(nu + 1, mu) - eps,
                 math.sqrt(nu + 1) / (eps - _site_energy(nu + 1, mu))),
                (_site_energy(nu - 1, mu) - eps,
                 math.sqrt(nu) / (eps - _site_energy(nu - 1, mu)))]
    weight, count = 0.0, 0
    for gap, c in channels:
        r = 1.0 - u_over_j * J_ER * gap / ein
        if r < 0.0:
            continue
        count += 1
        kappa = elastic_kappa(theta, ein) * math.sqrt(r)
        weight += math.sqrt(r) * c * c * float(form_factor_sq(kappa))
    return weight, count
