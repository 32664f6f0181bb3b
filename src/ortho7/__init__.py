"""Degree-7 orthomorphism polynomials over small finite fields.

A polynomial f over F_q is an orthomorphism when both f and f - x
permute the field.  This package builds the small fields involved,
tests the permutation / orthomorphism / complete-mapping properties
directly, carries the complete table of degree-7 permutation-polynomial
classes per supported order, searches the (alpha, beta) rescalings of
each class for orthomorphisms, and cross-validates everything against
an exhaustive census of the coefficient space.
"""

__version__ = "1.0.0"

from .canon import (  # noqa: F401
    CanonicalForm,
    canonicalize,
    ci_set,
    ck_set,
    solve_linear_relation,
)
from .errors import *  # noqa: F401,F403
from .families import (  # noqa: F401
    FamilyEntry,
    FamilyTable,
    audit_random,
    audit_support,
    is_pp_by_table,
    load_family_tables,
    table_for,
)
from .field import Field, FieldSpec, build_field, field_for, preset_orders  # noqa: F401
from .pairs import (  # noqa: F401
    EnumerationReport,
    PairSearchResult,
    count_ops,
    enumerate_ops,
    search_pairs_direct,
    search_pairs_table_based,
)
from .perm import (  # noqa: F401
    CensusQuery,
    census,
    census_counts,
    is_complete_mapping,
    is_orthomorphism,
    is_permutation,
)
from .poly import (  # noqa: F401
    LinearTransform,
    Poly,
    apply_transform,
    eval_poly,
    format_poly,
    parse_poly,
)
