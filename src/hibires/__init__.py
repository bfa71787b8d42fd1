"""Resolutions and homological invariants of edge ideals of unmixed
bipartite graphs, computed from their vertex-cover lattices and verified
against a brute-force simplicial homology oracle."""

from .betti import BettiTable
from .graphs import (
    BipartiteGraph,
    cover_lattice,
    graph_from_lattice,
    normalize_graph,
)
from .ideals import (
    SquarefreeIdeal,
    alexander_dual,
    edge_ideal,
    hibi_ideal,
    lcm_closure,
    monomial,
    render_monomial,
)
from .invariants import (
    depth_edge_ring,
    extremal_graded_edge_ring,
    extremal_multigraded_edge_ring,
    extremal_multigraded_H,
    invariant_report,
    is_cohen_macaulay,
    last_betti_lower_bound,
    pd_and_reg_H,
    regularity_edge_ring,
)
from .lattice import (
    CoverLattice,
    b_set,
    f_value,
    preorder_lattice,
    random_sublattice,
    validate_sublattice,
)
from .oracle import (
    SimplicialComplex,
    betti_oracle,
    betti_value_at,
    reduced_homology_ranks,
    upper_koszul_complex,
)
from .resolution import (
    ResolutionComplex,
    betti_table_from_basis,
    build_resolution,
    label,
    resolution_basis,
    strand_exactness,
    verify_complex,
    verify_minimality,
)

__version__ = "0.1.0"
