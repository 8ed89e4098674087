"""Spider-based search for subdivisions of complete bipartite graphs and
rooted spider blowups, with brute-force oracles and an experiment harness.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphParseError,
    RootedPattern,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_balanced,
    path_graph,
    pattern_density,
    random_gnm,
    rooted_blowup,
    rooted_density,
    spider_balance_criterion,
    spider_pattern,
    subdivide,
)
from .patterns import PatternDescriptor, parse_pattern
from .spiders import enumerate_spiders, spider_layout
from .goodness import (
    Thresholds,
    classify_paths,
    classify_spiders,
    f_value,
    not_good_ratio,
)
from .regularize import (
    extract_almost_regular,
    is_almost_regular,
)
from .finder import (
    ConstructionFailure,
    SpiderFamily,
    assemble_blowup,
    build_paths,
    connect_paths,
    find_kstk,
    refine_family,
)
from .oracle import (
    ClimbResult,
    ContainmentResult,
    ExtremalResult,
    SearchBudget,
    Witness,
    are_isomorphic,
    contains,
    extremal_number,
    hill_climb_free,
    verify_embedding,
)
