"""Local antimagic 3-colorings of joins of 1-regular and null graphs:
explicit label matrices, label-preserving surgery, verification, and an
exact small-instance oracle."""

from .errors import (
    AntimagicError,
    BijectionError,
    LoopError,
    ParallelEdgeError,
    SumDriftError,
    UseSpecialCase,
)
from .graph import (
    Graph,
    VertexId,
    bipartition,
    components,
    copies_of_p2_join_null,
    edge,
    merged,
    parse_token,
    u,
    v,
    x,
)
from .labeling import (
    EdgeLabeling,
    InducedColoring,
    chi_la_lower_bound,
    induce,
    is_local_antimagic,
)
from .oracle import certify_no_2_coloring, exact_chi_la, find_labeling
from .schemes import (
    EVEN,
    LabelMatrix,
    ODD,
    build_matrix,
    check_identities,
)
from .transforms import (
    LabeledGraph,
    SwapSpec,
    block_merge,
    delete_add,
    from_matrix,
    group_components,
    merge_all_x,
    merge_v_blocks,
    replay,
    special_labeled,
    split_x,
)

__version__ = "0.1.0"
