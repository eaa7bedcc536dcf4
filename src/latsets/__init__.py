"""Cancellative and recovering set families on chain-product lattices.

Verification, explicit constructions, exact Russian-doll search and
size bounds for three nested properties of point families on the Boolean
lattice B_n and on products of chains D_{l1,...,lk}: cancellative (anchored
meets are injective), strongly cancellative (meets and joins), and
recovering (additionally all unordered-pair meets and joins are distinct).
"""

from .bounds import (
    BoundReport,
    CaseConstants,
    EntropySandwich,
    applicable_bounds,
    bound_d2,
    bound_dlk,
    bound_recovering_bn,
    bound_sc_bn,
    coordinate_entropy_term,
    empirical_recovering_entropy,
    max_coordinate_entropy_term,
    recovering_case_constants,
)
from .construct import (
    block_construction_bn,
    diagonal_construction,
    power_construction,
    product_composition,
)
from .entropy import (
    ConcavityReport,
    Distribution,
    SubadditivityReport,
    binary_entropy,
    concavity_bound_check,
    entropy,
    subadditivity_check,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    ChainProductLattice,
    Point,
    PointSet,
    canonical_key,
    enumerate_lattice,
    format_lattice_spec,
    is_antichain,
    join,
    leq,
    mask_to_point,
    meet,
    parse_lattice_spec,
    point_to_mask,
    rank,
    subset_decode,
    subset_encode,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchConfig,
    SearchResult,
    exact_max,
    exhaustive_max,
    greedy,
    run_search,
)
from .setfile import (
    dumps_set_file,
    load_set_file,
    loads_set_file,
    save_set_file,
)
from .verify import (
    CANCELLATIVE,
    JOIN,
    MEET,
    PROPERTIES,
    RECOVERING,
    STRONGLY_CANCELLATIVE,
    PairStatistics,
    Violation,
    anchored_entropy,
    find_violation,
    is_cancellative,
    is_recovering,
    is_strongly_cancellative,
    normalize_property,
    pair_statistics,
    satisfies,
)

__version__ = "0.1.0"
