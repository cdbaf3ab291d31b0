"""fstarq: deformed-oscillator phase-space toolkit.

Builds f-deformed star products, Wigner functions and spectra, and runs
star-genvalue, commutator-correspondence and associativity diagnostics on
desk-scale grids.
"""

from .deformation import (DeformationSpec, amplitude_F, amplitude_F_deriv,
                          commutator_target, eval_f, expr_spec, f_squared, identity_spec,
                          normalization_Nf, parse_deformation, qdef_spec, registry_specs,
                          spec_to_text, spectrum, sqrt_n_spec)
from .errors import FStarError, NonPositiveValue, ParseError, SeriesDivergence, SingularAmplitude
from .genvalue import (AssocScaling, ResidualReport, Witness, associativity_defect,
                       build_hamiltonian, commutator_deviation, energy_level,
                       genvalue_residual, ladder_fields)
from .io import (canonical_json, field_report, field_to_csv, read_field_csv,
                 report_to_dict, report_to_json, spectrum_to_csv)
from .phasespace import (Field, PhaseGrid, default_grid, fcs_wigner,
                         field_from_poly, fock_wigner, gradient, integrate, laguerre,
                         mesh, partial_field, wigner_weights)
from .starproduct import fstar_apply, moyal_apply, star_commutator
from .symbols import (PolySymbol, annihilation_symbol, creation_symbol,
                      moyal_exact, parse_symbol, poisson_bracket,
                      random_polynomial)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "AssocScaling", "DeformationSpec", "FStarError", "Field", "NonPositiveValue",
    "ParseError", "PhaseGrid", "PolySymbol", "ResidualReport",
    "SeriesDivergence", "SingularAmplitude", "Witness",
    "amplitude_F", "amplitude_F_deriv",
    "annihilation_symbol", "associativity_defect", "build_hamiltonian",
    "canonical_json", "commutator_deviation", "commutator_target",
    "creation_symbol", "default_grid", "energy_level", "eval_f",
    "expr_spec", "f_squared", "fcs_wigner",
    "field_from_poly", "field_report", "field_to_csv",
    "fock_wigner", "fstar_apply", "genvalue_residual", "gradient",
    "identity_spec", "integrate", "ladder_fields", "laguerre", "mesh",
    "moyal_apply", "moyal_exact", "normalization_Nf", "parse_deformation",
    "parse_symbol", "partial_field", "poisson_bracket", "qdef_spec",
    "random_polynomial", "read_field_csv", "registry_specs", "report_to_dict",
    "report_to_json", "run_verification", "spec_to_text", "spectrum",
    "spectrum_to_csv", "sqrt_n_spec", "star_commutator", "wigner_weights",
]
