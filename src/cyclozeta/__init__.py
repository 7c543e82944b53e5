"""Exact symbolic machinery and numeric checks for the double shuffle and
distribution relations of cyclotomic multiple zeta values."""

from .algebra import (AlgebraElement, HARMONIC_DIAMOND, ZERO_DIAMOND, harmonic,
                      project_piY, qg_apply, quasi_shuffle, shuffle, x_to_y, y_to_x)
from .checks import Check, fold
from .dmr import (dmr_check, dmrd_check, eds_dmr_equality_check, functor_sharp,
                  functor_star, grouplike_check, phi_from_Z, phi_star)
from .duality import duality_suite
from .groups import (FiniteAbelianGroup, GroupElement, GroupHom, PowerStructure,
                     construct_group, divisors_of_order, parse_group, power_structure)
from .numeval import (NumericZMap, PolylogQuery, numeric_relation_suite,
                      polylog_numeric)
from .regularization import (TableZMap, TPolynomial, ZMap, bar_reg_T,
                             extend_Z_sh, extend_Z_st, rho_apply, sigma_apply)
from .relations import (fds_element, fdt1_element, fdt2_element, fdtd1_grid,
                        fdtd1_identity_check, rds_element, regdist_full_check,
                        zhao_case_table)
from .rings import COMPLEX, RATIONAL, ComplexRing, RationalRing
from .series import Alphabet, TruncatedSeries, series_exp, series_log

__version__ = "0.1.0"
