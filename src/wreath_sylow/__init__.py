"""Sylow p-subgroups of symmetric groups on p^n points, as wreath towers.

The package constructs the tower group explicitly, decides for any normal
subgroup (given by generators of its normal closure) whether it has a
complement, builds a complement invariant under the digit-scaling
normalizer when one exists, and cross-checks the whole pipeline against
brute-force enumeration at small sizes.
"""

from .complements import (
    Certificate,
    Decision,
    NormalClosure,
    REASON_NOT_SUMMAND,
    REASON_SOCLE_GAP,
    closure_handle,
    decide,
    decision_json,
    member,
    scale_orbit,
    tail_commutator_exponent,
    verify_complement,
)
from .linalg import Subspace, augmentation_subspace, fixed_subspace, lower_central_series, spin
from .partition import PartitionSpec, partition_generators, partition_has_complement, partition_is_normal
from .perm import Perm, commutator, conjugate, format_cycles, parse_cycles
from .tower import (
    TailVector,
    Tower,
    abelianization,
    base_translations,
    co_shift_gen,
    co_shift_gens,
    decompose,
    depth,
    in_tail,
    reconstruct,
    scale_gen,
    scale_gens,
    shift_gen,
    shift_gens,
    tail_image,
    tower,
)
from .uniserial import (
    LevelChoice,
    STYLE_CO_SHIFT,
    STYLE_PREFIX,
    generates_uniserial,
    level_sums,
)
from .words import parse_generators, parse_word

__version__ = "0.1.0"
