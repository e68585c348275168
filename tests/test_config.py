import dataclasses
import math

import pytest

from mottscope.config import (DEFAULT_J_ER, DEFAULT_V0_ER, InteractionSpec,
                              LatticeSpec, ProbeSpec, read_config_file)
from mottscope.errors import RangeError, ValidationError
from mottscope.harness import ScanPlan, validate_plan


def test_defaults():
    lat = LatticeSpec(L=8, nu=1)
    assert lat.V0_Er == DEFAULT_V0_ER == 15.0
    assert lat.J_Er == DEFAULT_J_ER == 6.5e-3
    assert lat.N == 8
    assert LatticeSpec(L=6, nu=3).N == 18
    assert ProbeSpec(Ein_Er=2.0, theta=0.99).mass_ratio == 1.0


def test_interaction_conversion():
    u = InteractionSpec(U_over_J=10.0)
    assert u.U_Er(6.5e-3) == pytest.approx(0.065, rel=1e-15)
    assert InteractionSpec(U_over_J=0.0).U_Er(1.0) == 0.0


def test_specs_are_frozen():
    lat = LatticeSpec(L=8, nu=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.L = 9
    probe = ProbeSpec(Ein_Er=2.0, theta=0.99)
    with pytest.raises(dataclasses.FrozenInstanceError):
        probe.theta = 0.5


def plan_of(lattice, probe, interaction):
    """One-point scan plan carrying the specs; validate_plan is their only gate."""
    return ScanPlan(sites=[lattice.L], fillings=[lattice.nu],
                    u_over_j=[interaction.U_over_J], thetas=[probe.theta],
                    eins=[probe.Ein_Er], mass_ratio=probe.mass_ratio,
                    v0_er=lattice.V0_Er, j_er=lattice.J_Er)


# spec field -> the plan field validate_plan names when it rejects it
PLAN_FIELD = {"L": "sites", "nu": "fillings", "V0_Er": "v0_er", "J_Er": "j_er",
              "Ein_Er": "ein", "mass_ratio": "mass_ratio", "theta": "thetas",
              "U_over_J": "u_over_j"}


def test_validate_happy_path():
    validate_plan(plan_of(LatticeSpec(L=8, nu=1), ProbeSpec(Ein_Er=2.0, theta=0.99),
                          InteractionSpec(U_over_J=10.0)))


@pytest.mark.parametrize("lattice,probe,interaction,field", [
    (LatticeSpec(L=1, nu=1), ProbeSpec(Ein_Er=2.0, theta=0.99),
     InteractionSpec(U_over_J=1.0), "L"),
    (LatticeSpec(L=8, nu=0), ProbeSpec(Ein_Er=2.0, theta=0.99),
     InteractionSpec(U_over_J=1.0), "nu"),
    (LatticeSpec(L=8, nu=1, V0_Er=0.0), ProbeSpec(Ein_Er=2.0, theta=0.99),
     InteractionSpec(U_over_J=1.0), "V0_Er"),
    (LatticeSpec(L=8, nu=1, J_Er=-1.0), ProbeSpec(Ein_Er=2.0, theta=0.99),
     InteractionSpec(U_over_J=1.0), "J_Er"),
    (LatticeSpec(L=8, nu=1), ProbeSpec(Ein_Er=0.0, theta=0.99),
     InteractionSpec(U_over_J=1.0), "Ein_Er"),
    (LatticeSpec(L=8, nu=1), ProbeSpec(Ein_Er=2.0, theta=0.99, mass_ratio=0.0),
     InteractionSpec(U_over_J=1.0), "mass_ratio"),
    (LatticeSpec(L=8, nu=1), ProbeSpec(Ein_Er=2.0, theta=4.0),
     InteractionSpec(U_over_J=1.0), "theta"),
    (LatticeSpec(L=8, nu=1), ProbeSpec(Ein_Er=2.0, theta=0.99),
     InteractionSpec(U_over_J=-0.5), "U_over_J"),
])
def test_validate_rejects(lattice, probe, interaction, field):
    with pytest.raises(ValidationError, match=PLAN_FIELD[field]):
        validate_plan(plan_of(lattice, probe, interaction))


def test_validate_rejects_float_site_count():
    with pytest.raises(ValidationError, match="sites must be integers"):
        validate_plan(plan_of(LatticeSpec(L=8.0, nu=1),
                              ProbeSpec(Ein_Er=2.0, theta=0.99),
                              InteractionSpec(U_over_J=1.0)))


def test_theta_boundaries():
    for theta in (math.pi, -math.pi + 1e-12, 0.0):
        validate_plan(plan_of(LatticeSpec(L=4, nu=1),
                              ProbeSpec(Ein_Er=1.0, theta=theta),
                              InteractionSpec(U_over_J=1.0)))
    with pytest.raises(ValidationError, match="thetas must lie in"):
        validate_plan(plan_of(LatticeSpec(L=4, nu=1),
                              ProbeSpec(Ein_Er=1.0, theta=-math.pi),
                              InteractionSpec(U_over_J=1.0)))


def test_read_config_file(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "U_Over_J = 12.5   # inline comment\n"
        "theta=0.99\n"
        "ein = 1:4:7\n")
    parsed = read_config_file(str(path))
    assert parsed == {"u_over_j": "12.5", "theta": "0.99", "ein": "1:4:7"}


def test_read_config_file_rejects_bare_words(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just a line without equals\n")
    with pytest.raises(RangeError, match="bad.cfg:1"):
        read_config_file(str(path))
