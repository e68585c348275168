"""The three benchmark workloads and the CLI calls that make them up.

Every workload has a fixed set of sites, fillings and U/J values, so a run
does the same work whatever the seed.  The seed only perturbs the theta and
E_in grids (see README.md for what each workload is for).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Scan:
    """One `mottscope scan|sce|mf` call over a full grid."""

    command: str
    sites: tuple
    fillings: tuple
    u: tuple
    thetas: tuple
    eins: tuple
    methods: tuple = ("exact", "sce", "mf")
    gap_order: int = 1
    lambda_source: str = "perturbative"

    def argv(self, out: str, cache_dir: str | None = None) -> list[str]:
        def join(xs):
            return ",".join(repr(x) for x in xs)

        argv = [self.command, "--sites", join(self.sites),
                "--filling", join(self.fillings), "--u-over-j", join(self.u),
                "--theta", join(self.thetas), "--ein", join(self.eins),
                "--gap-order", str(self.gap_order),
                "--lambda-source", self.lambda_source,
                "--jobs", "1", "--out", out]
        if self.command == "scan":
            argv += ["--methods", ",".join(self.methods)]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        return argv

    def keys(self) -> list[tuple]:
        return [(L, nu, u, th, e, m, str(self.gap_order) if m == "sce" else "")
                for L in self.sites for nu in self.fillings for u in self.u
                for th in self.thetas for e in self.eins for m in self.methods]


@dataclass(frozen=True)
class Critical:
    """One `mottscope critical` call."""

    fillings: tuple

    def argv(self, out: str, cache_dir: str | None = None) -> list[str]:
        return ["critical", "--filling", ",".join(map(str, self.fillings)),
                "--out", out]


@dataclass
class Workload:
    name: str
    calls: dict            # label -> Scan | Critical, timed on every round
    cache_fill: bool = False   # set-up runs the calls once, cold, into a cache
    ed_units: tuple = ()   # (L, U/J) units whose exact rows meet dense ED


def _jittered(rng: random.Random, base: list[float], half_width: float) -> tuple:
    return tuple(round(x + rng.uniform(-half_width, half_width), 6) for x in base)


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


NAMES = ("exact_cold", "cache_rescan", "analytic_grid")
U_SWEEP = (10.0, 15.0, 20.0, 30.0, 50.0, 80.0, 120.0, 200.0)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "exact_cold":
        # theta only moves the momentum transfer, never which channels open,
        # so the work is the same on every seed.
        theta = _jittered(rng, [0.99], 0.005)
        eins = (2.0,)
        return Workload(name, {
            "L8": Scan("scan", (8,), (1,), (100.0,), theta, eins),
            "L6_7": Scan("scan", (6, 7), (1,), U_SWEEP, theta, eins),
        })
    if name == "cache_rescan":
        thetas = _jittered(rng, _linspace(0.6, 1.4, 14), 0.015)
        eins = _jittered(rng, _linspace(1.6, 4.0, 14), 0.04)
        units = ((6, rng.choice(U_SWEEP)), (7, rng.choice(U_SWEEP)))
        return Workload(name, {
            "rescan": Scan("scan", (6, 7), (1,), U_SWEEP, thetas, eins),
        }, cache_fill=True, ed_units=units)
    if name == "analytic_grid":
        thetas = _jittered(rng, [0.94, 0.99, 1.04], 0.01)
        eins = _jittered(rng, [2.0, 2.4, 2.8], 0.1)
        # Order-2 points sit far from the limit bound on either side, at fixed
        # inputs, so the count of rows failing it is the same on every run.
        # U/J just inside the MF superfluid, where the fixed point is slow:
        # J/U at 1.002 and 1.01 times the critical 1/2 + nu - sqrt(nu(nu+1))
        near_mf_onset = tuple(
            round(1.0 / (ratio * (0.5 + nu - math.sqrt(nu * (nu + 1.0)))), 4)
            for nu in (1, 2) for ratio in (1.002, 1.01))
        return Workload(name, {
            "sce1": Scan("sce", (96, 192), (1, 2),
                         (20.0, 30.0, 45.0, 70.0, 100.0, 150.0, 200.0, 250.0),
                         thetas, eins, methods=("sce",)),
            "sce2_nu1": Scan("sce", (96, 192), (1,), (40.0, 60.0), (0.99,),
                             (2.0,), methods=("sce",), gap_order=2),
            "sce2_nu2": Scan("sce", (96, 192), (2,), (20.0, 60.0, 250.0),
                             (0.99,), (2.0,), methods=("sce",), gap_order=2),
            "mf_iter": Scan("mf", (96,), (1, 2), near_mf_onset, thetas[1:2],
                            eins[1:2], methods=("mf",),
                            lambda_source="iterative"),
            "critical": Critical((1, 2, 3)),
        })
    raise KeyError(name)
