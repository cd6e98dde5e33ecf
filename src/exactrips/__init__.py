"""Exact-arithmetic Vietoris-Rips homology over a 4-D sheet construction.

A point cloud samples a compact subset of R^4 built from digit-interleaved
Cantor-style sheets; across a whole interval of Rips scales its first F2
Betti number grows by one per sheet, driven by edges of length exactly the
scale that no triangle can contain.  Every comparison is exact rational
arithmetic; there is no floating point anywhere in the pipeline.
"""

from .digits import (
    BinaryString,
    TernaryString,
    delta3,
    format_rational,
    parse_rational,
    ternary_value,
    to_ternary,
)
from .embedding import (
    FactReport,
    IManyPoint,
    check_close_expanding,
    check_facts,
    decode,
    embed_strings,
    estimate_equivalence,
)
from .harness import (
    ExperimentReport,
    ExperimentRow,
    LemmaSuiteReport,
    RigidEdge,
    assert_rigid_free,
    complete_to_cycle,
    default_sheets,
    find_rigid_edges,
    run_lemma_suite,
    theorem_experiment,
)
from .homology import (
    Cycle,
    betti01,
    boundary1,
    boundary2,
    rank_f2,
    rigid_rank_lower_bound,
)
from .rips import RipsComplex2, build_complex, build_edges, sq_dist, sweep
from .space import (
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    fiber_value,
    scale_window,
)

__version__ = "0.1.0"
