"""S_h-linear sets over finite vector spaces and their correspondence with
q-ary linear codes of minimum distance >= 2h+1."""

from .gf import FieldCtx, factor_prime_power, field_of_order, make_field
from .linalg import (
    FqMatrix,
    FqVector,
    extract_basis,
    in_span,
    is_linearly_independent,
    kernel_basis,
    rank,
    rref,
    zero_vector,
)
from .code import (
    LinearCode,
    codewords,
    distance_at_least,
    from_generator,
    from_parity_check,
    hamming_distance,
    hamming_weight,
    min_distance,
    singleton_ok,
)
from .shset import (
    CollisionWitness,
    HCombination,
    ShSetCandidate,
    adjoin_zero,
    append_zero_coordinate,
    check_2h_subsets_independent,
    check_sh_linear,
    check_sh_set,
    collision_groups,
    count_h_combinations,
    enumerate_h_combinations,
    exhaustive_max_sh_set,
    extend_to_maximal,
    h_span,
    is_sh_linear,
    is_sh_set,
    size_bound,
    satisfies_size_bound,
    translate_scale,
)
from .correspond import (
    CorrespondenceReport,
    code_to_set,
    round_trip_check,
    set_to_code,
)
from .bounds import (
    BoundResult,
    CodeTableEntry,
    ExhaustiveCertificate,
    bmax_log,
    emit_sh_table,
    emit_vbar_series,
    exists_code_with_distance,
    gaussian_binomial,
    ingest_table,
    sh_lower,
    vbar_exact,
    vbar_upper,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
