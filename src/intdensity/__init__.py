"""Exact-arithmetic experiments with the density of sets of naturals under
computable samplings: bit streams, injections/permutations, prefix-set
constructions, guess-driven injections, graph-set trace adversaries, and
step-witness function tables."""

from .codes import (
    cantor_pair,
    cantor_unpair,
    finite_set_code,
    finite_set_decode,
    fixed_width_code,
    fixed_width_decode,
    fixed_width_len,
    prefix_code,
    prefix_free_code,
    prefix_free_decode,
    string_code,
    string_decode,
    string_parts,
    triple_code,
    triple_decode,
)
from .constructions import (
    PrefixTree,
    WctInjection,
    block_of,
    build_prefix_tree,
    build_wct_injection,
    extract_candidates,
    graph_members,
    graph_set,
    hit_indices,
    introreduce,
    prefix_code_sampler,
    prefix_set,
    trace_from_sampler,
    wct_target,
)
from .errors import (
    DomainError,
    HorizonError,
    InjectivityError,
    InsufficientElementsError,
    IntDensityError,
    InvalidTableError,
    PrefixInconsistencyError,
)
from .samplers import (
    Sampler,
    eval_sampler,
    image_interval,
    image_stream,
    parse_sampler,
    preimage_partial_density,
)
from .streams import (
    DensityProfile,
    SetStream,
    density_profile,
    partial_density,
    preimage_hits,
    principal_function,
    splitmix64,
)
from .weakrep import (
    FamilyRegistry,
    SigmaMap,
    WeakRepTable,
    adversary_rows,
    build_pset,
    builtin_program,
    diagonal_avoid,
    dominating_adversary,
    eval_step,
    image_set,
    interleave_family,
    p_bound,
    parse_manifest,
    psi_eval,
    table_of_program,
    validate_weakrep,
)

__version__ = "0.1.0"
