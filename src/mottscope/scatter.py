"""Elastic and inelastic cross sections from the exact channel table.

The exact sums run over the momentum-resolved table of spectrum.py: on the
ring every eigenstate has a lattice momentum K, so its site-resolved
density amplitudes are one weight times a plane wave, and the lattice sum
is the same interference kernel that the strong-coupling channels use.
Every cross section is the angular density normalized by N and by the
squared scattering length, in the diagonal (density-coupling) impulse
approximation.  Channels with negative kinematic radicand are closed and
dropped from the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LatticeSpec, ProbeSpec

INTERFERENCE_TOL = 1e-9


def form_factor(kappa_d, V0_Er: float):
    """Gaussian on-site density profile evaluated at momentum transfer kappa*d."""
    kappa_d = np.asarray(kappa_d, dtype=float)
    w = np.exp(-kappa_d**2 / (4.0 * math.pi**2 * math.sqrt(V0_Er)))
    return w if w.ndim else float(w)


def elastic_kappa(probe: ProbeSpec) -> float:
    """Elastic momentum transfer kappa_el*d; negative for forward angles."""
    return -math.pi * math.sin(probe.theta) * math.sqrt(
        probe.mass_ratio * probe.Ein_Er)


def interference(kappa_d, q_d, L: int):
    """Squared lattice sum |sum_j exp(i (kappa - q) d j)|^2 over L sites.

    The removable singularity at (kappa - q) d = 2 pi k is replaced by its
    limit L^2 whenever |sin((kappa - q) d / 2)| < 1e-9.
    """
    phi = np.asarray(kappa_d, dtype=float) - np.asarray(q_d, dtype=float)
    half = np.sin(phi / 2.0)
    small = np.abs(half) < INTERFERENCE_TOL
    denom = np.where(small, 1.0, half**2)
    out = np.where(small, float(L * L), np.sin(L * phi / 2.0) ** 2 / denom)
    return out if out.ndim else float(out)


@dataclass
class Kinematics:
    """Per-channel momentum transfer for a fixed probe and target spectrum."""

    kappa_el_d: float
    radicand: np.ndarray
    open_mask: np.ndarray
    kappa_d: np.ndarray


@dataclass
class CrossSectionRecord:
    """One computed cross section plus the bookkeeping the harness prints."""

    method: str
    value: float
    channel_count: int
    params: dict = field(default_factory=dict)
    warning: str = ""
    contributing_count: int | None = None


def channel_kinematics(energies_er: np.ndarray, probe: ProbeSpec) -> Kinematics:
    """Kinematic radicand and scattered momentum for every eigenstate."""
    kappa_el = elastic_kappa(probe)
    de = energies_er - energies_er[0]
    radicand = 1.0 - de / probe.Ein_Er
    open_mask = radicand >= 0.0
    kappa_d = np.where(open_mask,
                       kappa_el * np.sqrt(np.maximum(radicand, 0.0)),
                       np.nan)
    return Kinematics(kappa_el_d=kappa_el, radicand=radicand,
                      open_mask=open_mask, kappa_d=kappa_d)


def _echo(lattice: LatticeSpec, probe: ProbeSpec, u_over_j) -> dict:
    return {
        "L": lattice.L, "nu": lattice.nu, "N": lattice.N,
        "V0_Er": lattice.V0_Er, "J_Er": lattice.J_Er,
        "Ein_Er": probe.Ein_Er, "theta": probe.theta,
        "mass_ratio": probe.mass_ratio, "u_over_j": u_over_j,
    }


def _lattice_sum(kappa_d, k, L: int):
    """interference(kappa, K, L) for K = 2 pi k / L, at the image of K nearest kappa.

    The kernel has period 2 pi in kappa - K.  Near kappa - K = 2 pi m with
    m != 0, the rounding of L (kappa - K) / 2 is not small against the sine
    it feeds (it moved one L=7 cross section by 3e-10 relative).  Shifting k
    by a multiple of L keeps the argument in [-pi, pi], where it is.  The
    exact and the strong-coupling sums both go through this kernel.
    """
    k = k + L * np.rint(np.asarray(kappa_d) / (2.0 * math.pi) - np.asarray(k) / L)
    return interference(kappa_d, 2.0 * math.pi * k / L, L)


def inelastic_cs_exact(spectrum, weights: np.ndarray, lattice: LatticeSpec,
                       probe: ProbeSpec, u_over_j=None) -> CrossSectionRecord:
    """Sum of all open excitation channels weighted by density matrix elements.

    Each open eigenstate n != 0, of lattice momentum K_n, contributes
    sqrt(radicand) * w_n * interference(kappa_n, K_n, L) * W(kappa_n)^2,
    with w_n = |<n|n_0|0>|^2, and the total is normalized by the particle
    number.
    """
    kin = channel_kinematics(spectrum.energies, probe)
    idx = np.flatnonzero(kin.open_mask)
    idx = idx[idx != spectrum.ground_index]
    params = _echo(lattice, probe, u_over_j)
    if idx.size == 0:
        return CrossSectionRecord("exact", 0.0, 0, params,
                                  warning="no_open_channels",
                                  contributing_count=0)
    kd = kin.kappa_d[idx]
    structure = weights[idx] * _lattice_sum(kd, spectrum.momentum[idx], lattice.L)
    terms = np.sqrt(kin.radicand[idx]) * structure * form_factor(kd, lattice.V0_Er) ** 2
    value = float(terms.sum() / lattice.N)
    # second open-channel bookkeeping: channels with actual spectral weight
    floor = 1e-24 * structure.max() if structure.size else 0.0
    contributing = int((structure > floor).sum())
    return CrossSectionRecord("exact", value, int(idx.size), params,
                              contributing_count=contributing)


def elastic_cs_exact(spectrum, weights: np.ndarray, lattice: LatticeSpec,
                     probe: ProbeSpec, u_over_j=None) -> CrossSectionRecord:
    """Ground-state channel evaluated at the elastic momentum transfer."""
    kappa_el = elastic_kappa(probe)
    value = float(weights[spectrum.ground_index]
                  * _lattice_sum(kappa_el, 0, lattice.L)
                  * form_factor(kappa_el, lattice.V0_Er) ** 2 / lattice.N)
    params = _echo(lattice, probe, u_over_j)
    params["channel"] = "elastic"
    return CrossSectionRecord("exact", value, 1, params)
