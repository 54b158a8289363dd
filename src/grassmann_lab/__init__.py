"""Exact toolkit for Grassmann graphs over finite fields.

Builds J_q(n, m), verifies its maximal-clique structure (stars and tops)
exhaustively, analyses coreness through exact colouring search and the
integrality of the vertex/clique ratio, and provides the cyclotomic
factorization machinery behind that ratio.
"""

from .config import BoundExceeded, SearchBudgetExceeded
from .coreness import (
    CorenessReport,
    Endomorphism,
    alpha_exact,
    build_colouring_endomorphism,
    classify_endomorphism,
    core_test,
    orbit_colouring,
    validate_endomorphism,
)
from .field import FieldSpec, make_field
from .fixture import Fixture, check_fixture, load_fixture
from .graph import (
    GrassmannGraph,
    MaximalClique,
    build_graph,
    classify_maximal_cliques,
    dual_map_check,
    induced_permutation,
    star_catalog,
    symmetry_certificate,
    top_catalog,
    verify_clique_lemmas,
)
from .qpoly import (
    CycloFactorization,
    HReport,
    IntPolynomial,
    gaussian_binomial_int,
    gaussian_binomial_poly,
    h_integrality,
    h_report,
    knuth_wilf_exponents,
    omega_int,
    omega_poly,
    scan_core_threshold,
)
from .subspaces import FqMatrix, Subspace

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
