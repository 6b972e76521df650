"""Spectral renormalization group for desk-scale matter-field models.

Subpackages by theme: fock (truncated Fock space and ladder algebra),
normalform (coupling kernels, anisotropic norms, operator assembly),
feshbach (sharp and smooth decimation maps), rgflow (scaling, one
renormalization step, the full flow), models (spin-boson style Hamiltonians,
dilation, Pauli-Fierz transform, fiber/mass), oracle (dense reference
computations), cli (batch driver).
"""

from .fock import (DEFAULT_DIM_CAP, FockBasis, ModeGrid, OperatorMatrix,
                   build_fock_basis, build_mode_grid, field_hamiltonian,
                   ladder_matrix, pull_through_check)
from .normalform import (CouplingFunction, NormalFormHamiltonian,
                         assemble_operator, assemble_term, basic_bound_margin,
                         coupling_norm_mu, coupling_norm_mu1, default_r_grid,
                         from_profile, hamiltonian_norm, interaction_norm,
                         slot_masses, split, t_slope_deviation)
from .feshbach import (FeshbachResult, NotInvertibleError, ProjectionPair,
                       feshbach_map, identity_defect, isospectral_check,
                       reconstruct_inverse, spectral_projection)
from .rgflow import (DomainError, FlowStalledError, FlowTrajectory,
                     PolydiscParams, StepInfo, flow, normal_order_product,
                     parameter_flow, polydisc_coordinates, polydisc_membership,
                     rg_step, scale_coupling)
from .models import (CoupledModel, ModelSpec, build_model, complex_dilate,
                     dilated_grid, fiber_hamiltonian, field_operator, form_factor,
                     ground_sector_hamiltonian, infrared_exponent,
                     mass_renormalization, pauli_fierz_transform, pf_coupling,
                     pf_gauge_function)
from .oracle import (NotFoundError, PoleFit, ResolutionError, SolverError,
                     combes_deviation, exact_spectrum, fit_pole,
                     perturbation_oracle, resolvent_element,
                     resonance_eigenvalue, resonance_multiplicity)

__version__ = "0.1.0"
