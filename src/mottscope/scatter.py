"""Cross sections from a lattice channel table, and the kinematics they share.

A lattice channel table lists channels n with an excitation energy, a
lattice momentum K_n and a weight w_n = |<n|n_0|0>|^2.  The exact spectrum
is one: on the ring every eigenstate has a lattice momentum, so its
site-resolved density amplitudes are one weight times a plane wave.  The
strong-coupling pairs are another.  lattice_channel_sum sums both.  Every
cross section is the angular density normalized by N and by the squared
scattering length, in the diagonal (density-coupling) impulse
approximation.  Channels with negative kinematic radicand are closed and
dropped from the sums; open_channels decides which are open for every
method.  A probe's theta may be one angle or a 1-D array of them: the
channels open at one E_in are the same at every angle, so angle_sums
evaluates a method's channel sum over the whole angle axis at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LatticeSpec, ProbeSpec

INTERFERENCE_TOL = 1e-9
# Most channel x angle elements one angle block holds.  An L=192 pair grid
# has 36,672 channels, so 400 angles at once would make every temporary of
# the lattice sum 117 MB; a block of this size keeps each one at 0.5 MB.
ANGLE_BLOCK_ELEMENTS = 2 ** 16


def form_factor(kappa_d, V0_Er: float):
    """Gaussian on-site density profile evaluated at momentum transfer kappa*d."""
    kappa_d = np.asarray(kappa_d, dtype=float)
    w = np.exp(-kappa_d**2 / (4.0 * math.pi**2 * math.sqrt(V0_Er)))
    return w if w.ndim else float(w)


def elastic_kappa(probe: ProbeSpec):
    """Elastic momentum transfer kappa_el*d; negative for forward angles.

    Exactly 0 at theta = 0 and at theta = pi, where math.sin leaves 1.2e-16.
    An array of angles gives an array with each angle's scalar value, from
    math.sin: np.sin may differ from it in the last bit.
    """
    if np.ndim(probe.theta):
        return np.array([_kappa_el(theta, probe) for theta in probe.theta],
                        dtype=float)
    return _kappa_el(probe.theta, probe)


def _kappa_el(theta: float, probe: ProbeSpec) -> float:
    if theta == math.pi:
        return 0.0
    return -math.pi * math.sin(theta) * math.sqrt(probe.mass_ratio * probe.Ein_Er)


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
class CrossSectionRecord:
    """The three cells a scan row prints for one computed cross section.

    value holds one number per angle when the probe's theta is an array;
    channel_count and warning depend only on E_in, so they are shared.
    """

    value: float | np.ndarray
    channel_count: int
    warning: str = ""


def open_channels(excitation_er, probe: ProbeSpec):
    """Open mask and kinematic root of excitation channels.

    A channel of excitation energy dE (in E_r) is open when the probe can
    pay it, r = 1 - dE/E_in >= 0; it then scatters at kappa_el * sqrt(r)
    (see angle_sums).  Closed channels get root 0.  Every method weights its
    channels through this kernel.
    """
    radicand = 1.0 - np.asarray(excitation_er, dtype=float) / probe.Ein_Er
    return radicand >= 0.0, np.sqrt(np.maximum(radicand, 0.0))


def angle_sums(probe: ProbeSpec, root: np.ndarray, summand):
    """Channel sums of summand(kappa_d) at every angle of probe.theta.

    kappa_d = kappa_el * root has one row per angle followed by root's
    shape; summand returns terms of the same shape.  Each angle's terms are
    summed on their own, in the order of the flattened root grid, so a
    value does not depend on the other angles of the call.  Angles go in
    blocks of at most ANGLE_BLOCK_ELEMENTS elements.  Returns kappa_el and
    the sums, both one entry per angle (length 1 for a scalar theta).
    """
    kappa_el = np.atleast_1d(elastic_kappa(probe))
    sums = np.empty(kappa_el.size)
    step = max(1, ANGLE_BLOCK_ELEMENTS // max(root.size, 1))
    for start in range(0, kappa_el.size, step):
        block = kappa_el[start:start + step]
        terms = summand(np.multiply.outer(block, root))
        sums[start:start + step] = terms.reshape(block.size, -1).sum(axis=1)
    return kappa_el, sums


def per_angle(probe: ProbeSpec, values):
    """values (one per angle) as a record holds them: a float for a scalar theta."""
    return values if np.ndim(probe.theta) else float(values[0])


def _lattice_sum(kappa_d, k, L: int):
    """interference(kappa, K, L) for K = 2 pi k / L, at the image of K nearest kappa.

    The kernel has period 2 pi in kappa - K.  Near kappa - K = 2 pi m with
    m != 0, the rounding of L (kappa - K) / 2 is not small against the sine
    it feeds (it moved one L=7 cross section by 3e-10 relative).  Shifting k
    by a multiple of L keeps the argument in [-pi, pi], where it is.
    """
    k = k + L * np.rint(np.asarray(kappa_d) / (2.0 * math.pi) - np.asarray(k) / L)
    return interference(kappa_d, 2.0 * math.pi * k / L, L)


def lattice_channel_sum(excitation_er, weights, momentum, lattice: LatticeSpec,
                        probe: ProbeSpec) -> CrossSectionRecord:
    """Cross section of a lattice channel table, the one sum of exact and sce.

    Channel n, of excitation energy dE_n (in E_r), weight w_n = |<n|n_0|0>|^2
    and lattice momentum K_n = 2 pi momentum[n] / L, contributes
    sqrt(radicand) * w_n * interference(kappa_n, K_n, L) * W(kappa_n)^2 when
    open, and the total is normalized by N.  channel_count counts the open
    channels, zero weights included; no_open_channels is set exactly when it
    is 0.  With no elastic momentum transfer the density probe is the
    conserved N, which excites nothing, so the sum is exactly 0 there.
    """
    open_mask, root = open_channels(excitation_er, probe)
    count = int(np.count_nonzero(open_mask))
    if count == 0:
        zeros = np.zeros(np.size(probe.theta))
        return CrossSectionRecord(per_angle(probe, zeros), 0,
                                  warning="no_open_channels")
    if count < root.size:   # compact to the open channels
        idx = np.flatnonzero(open_mask)
        root, weights, momentum = root[idx], weights[idx], momentum[idx]
    kappa_el, sums = angle_sums(probe, root, lambda kd: (
        root * (weights * _lattice_sum(kd, momentum, lattice.L))
        * form_factor(kd, lattice.V0_Er) ** 2))
    values = np.where(kappa_el == 0.0, 0.0, sums / lattice.N)
    return CrossSectionRecord(per_angle(probe, values), count)


def inelastic_cs_exact(spectrum, lattice: LatticeSpec,
                       probe: ProbeSpec) -> CrossSectionRecord:
    """The lattice channel sum over the excited eigenstates, entries 1... of the table."""
    energies = spectrum.energies_J * lattice.J_Er
    return lattice_channel_sum(energies[1:] - energies[0], spectrum.weights[1:],
                               spectrum.momentum[1:], lattice, probe)
