"""Cyclic combinatorial configurations on Z_v: enumeration, counting,
canonical forms and isomorphism testing, with brute-force oracles for
every closed formula."""

from .baseline import (
    affine_map_between,
    canonical_form,
    enumerate_base_lines,
    is_base_line,
    is_connected,
    orbit_size,
)
from .circulant import (
    CirculantMatrix,
    Weight4Witness,
    exceptional_weight4_witness,
    gram_similar,
    incidence_text,
    paq_equivalent,
)
from .configuration import (
    CyclicConfiguration,
    LeviGraph,
    incidence_matrix,
    levi_graph,
    levi_text,
    parse_levi_text,
)
from .counting import (
    count_closed_formula,
    count_fixed_bruteforce,
    count_fixed_closed,
    count_orbit_scan,
    count_unit_sum,
)
from .iso import (
    IsoWitness,
    automorphisms,
    completeness_report,
    exact_isomorphic,
    isomorphic,
    witness_valid,
)
from .residue_ring import CapExceeded, phi, units
from .solving_sets import (
    SolvingSetParams,
    SolvingSetUnavailable,
    solve_iso_pq,
    solving_set,
    solving_set_params,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CirculantMatrix",
    "CyclicConfiguration",
    "IsoWitness",
    "LeviGraph",
    "SolvingSetParams",
    "SolvingSetUnavailable",
    "Weight4Witness",
    "affine_map_between",
    "automorphisms",
    "canonical_form",
    "completeness_report",
    "count_closed_formula",
    "count_fixed_bruteforce",
    "count_fixed_closed",
    "count_orbit_scan",
    "count_unit_sum",
    "enumerate_base_lines",
    "exact_isomorphic",
    "exceptional_weight4_witness",
    "gram_similar",
    "incidence_matrix",
    "incidence_text",
    "is_base_line",
    "is_connected",
    "isomorphic",
    "levi_graph",
    "levi_text",
    "orbit_size",
    "paq_equivalent",
    "parse_levi_text",
    "phi",
    "solve_iso_pq",
    "solving_set",
    "solving_set_params",
    "units",
    "witness_valid",
]
