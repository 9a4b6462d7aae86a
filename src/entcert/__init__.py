"""entcert: certified entanglement analysis of low-rank quantum states.

Decides distillability, PPT-ness, separability and structural
properties (full-rank properties, reducibility, product vectors in
subspaces) of bipartite and tripartite states, producing a
machine-checkable certificate for every verdict.
"""

from .certificates import (
    Certificate,
    Distillable,
    Ppt,
    PptEntangled,
    SchmidtRank2Witness,
    Separable,
    Undecided,
    UndecidableError,
    validate_certificate,
    validate_witness,
)
from .criteria import (
    classify_rank_le_max,
    certify_pure_plus_sigma,
    full_rank_property,
    is_ppt,
    reduction_criterion,
    schmidt2_witness,
    trivially_distillable,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, hermitian_eigen, numerical_rank
from .states import (
    BipartiteState,
    BlockForm,
    PureState,
    apply_local,
    block_form,
    partial_transpose,
    reduce,
    schmidt,
    sector,
    swap_sides,
    tensor,
    von_neumann_entropy,
)

__version__ = "0.1.0"
