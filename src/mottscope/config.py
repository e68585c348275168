"""Unit conventions, parameter specs and the config-file reader.

Energies are measured in lattice recoil units E_r and lengths in units of
the lattice constant d, so transferred momenta only ever appear through
the dimensionless product kappa*d.  The interaction strength is a plain
float U/J; its recoil-unit value is (U/J) * J_Er.  Ranges are checked
once, for a whole scan, by harness.validate_plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

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


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file into a lowercase-keyed dict of strings.

    Blank lines and '#' comments are skipped.  Values are left unparsed;
    the CLI interprets them exactly like the matching command-line flags.
    A file that cannot be read or parsed raises ValidationError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"config file: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"config file: {path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out
