"""Learn, score and check k-th order t-cherry junction tree approximations."""

import os
import sys

# No tcherry code calls BLAS, and numpy imports faster when OpenBLAS starts
# no thread per core. Set before numpy's first import only, and only where
# the user has not chosen.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distribution import (
    DEFAULT_CELL_CAP,
    JointTable,
    MarginalCache,
    VariableSpec,
    entropy,
    from_counts,
    make_scheme,
    marginalize,
    with_additive_smoothing,
)
from .errors import (
    CapacityError,
    ConsistencyError,
    DataFormatError,
    DomainError,
    StructureError,
    TCherryError,
)
from .junction_tree import (
    Hypergraph,
    PuzzleNumbering,
    SeparatorLink,
    TCherryJunctionTree,
    add_hypercherry,
    eligible_separators,
    first_rip_violation,
    graham_reduce,
    new_parent,
    parse_tree_document,
    puzzle_numbering,
    tree_from_dict,
    tree_to_dict,
    tree_to_json,
)
from .learner import (
    CandidateTable,
    FitResult,
    TraceStep,
    enumerate_candidates,
    find_parent_cluster,
    fit_chow_liu,
    fit_exhaustive,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
    iter_structures,
    random_factorizing_table,
)
from .scoring import (
    ConditionComparison,
    ConditionReport,
    ScoreBreakdown,
    check_recovery_conditions,
    kl_entropy_form,
    kl_exact,
    score_to_dict,
    tree_weight,
)
from .datasets import lizards_path, load_lizards

__version__ = "0.1.0"
