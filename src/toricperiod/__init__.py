"""Exact toric periods on unramified GL(2) principal-series families.

The package computes the toric period functional on algebraic families of
principal-series vectors over a p-adic field, entirely in exact arithmetic,
and certifies that its image is the stated non-principal ideal of the
coefficient ring.  See README.md for the tour.
"""

# The names the README and demos/ use, and every exception the library
# raises; everything else is imported from its submodule.
from .family import (
    PHI_W,
    SPH,
    ClassCoverageError,
    ParseError,
    f0_table,
    random_table,
    vector_to_json,
)
from .groebner import CertificateError, MembershipSolver
from .laurent import NotDivisible, NotInvertible, TailViolation
from .localfield import ConductorExceeded
from .period import (
    VerdictMismatch,
    cleared_window,
    image_ideal,
    image_ideal_alt,
    spherical_ratio,
    toric_period,
    verify_image,
)
from .scalars import FieldMismatch, NotRational, QNumeric, QSymbolic
from .whittaker import (
    big_cell_profile,
    cs_factor_regularized,
    shintani_sph,
    whittaker_coefficient,
)

__version__ = "0.1.0"
