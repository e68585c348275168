"""Scattering observables of a 1-D Bose-Hubbard target, three ways.

Exact diagonalization at fixed particle number, a strong-coupling
expansion around the Mott insulator, and a site-decoupled mean field all
produce the same normalized cross sections, which makes desk-scale
cross-validation cheap.
"""

from .config import (DEFAULT_J_ER, DEFAULT_V0_ER, LatticeSpec, ProbeSpec,
                     read_config_file)
from .fock import DEFAULT_DIM_CAP, FockBasis, dimension, enumerate_basis
from .spectrum import (HamiltonianMatrix, Spectrum, build_hamiltonian, cache_key,
                       diagonalize, ground_matrix_elements, lattice_bonds,
                       load_spectrum, save_spectrum, spectrum_cache_path)
from .scatter import (CrossSectionRecord, angle_sums, elastic_kappa, form_factor,
                      inelastic_cs_exact, interference, lattice_channel_sum,
                      open_channels)
from .sce import (critical_j, density_matrix_element, effective_tunneling,
                  inelastic_cs_sce, large_l_cs, ph_energy_first_order,
                  ph_energy_second_order, ph_momentum_grids, tunneling_phase)
from .meanfield import (LAMBDA_SOURCES, c_coefficient, condensate_lambda,
                        coupling_coefficients, critical_j_mf, inelastic_cs_mf,
                        lambda_squared, mu_fixed_density, selfconsistent_lambda,
                        single_site_energy)
from .harness import (CSV_COLUMNS, ScanPlan, critical_points_report,
                      relative_delta, rows_to_csv, rows_to_json, run_compare,
                      run_scan, validate_plan)

__version__ = "0.1.0"
