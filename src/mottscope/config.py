"""Unit conventions, parameter specs and the config-file reader.

Energies are measured in lattice recoil units E_r and lengths in units of
the lattice constant d, so transferred momenta only ever appear through
the dimensionless product kappa*d.  The interaction strength is specified
as U/J; its recoil-unit value follows from U_Er = (U/J) * J_Er.  Ranges
are checked once, for a whole scan, by harness.validate_plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError

DEFAULT_V0_ER = 15.0
DEFAULT_J_ER = 6.5e-3


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic 1-D lattice target with L sites at integer filling nu."""

    L: int
    nu: int
    V0_Er: float = DEFAULT_V0_ER
    J_Er: float = DEFAULT_J_ER

    @property
    def N(self) -> int:
        return self.nu * self.L


@dataclass(frozen=True)
class ProbeSpec:
    """Incoming matter wave: energy in E_r, scattering angle, mass ratio m/M."""

    Ein_Er: float
    theta: float
    mass_ratio: float = 1.0


@dataclass(frozen=True)
class InteractionSpec:
    """On-site repulsion in units of the tunneling energy."""

    U_over_J: float

    def U_Er(self, J_Er: float) -> float:
        return self.U_over_J * J_Er


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file into a lowercase-keyed dict of strings.

    Blank lines and '#' comments are skipped.  Values are left unparsed;
    the CLI interprets them exactly like the matching command-line flags.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise RangeError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().lower()] = value.strip()
    return out
