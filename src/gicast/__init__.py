"""Groupcast index coding: instances, coding schemes, searches, and oracles."""

from .gf import (
    GF2,
    GF256,
    CodingMatrix,
    Decoding,
    Field,
    FieldSizeError,
    field,
    mds_generator,
    rank,
    row_basis,
    solve_decode,
)
from .heuristic import (
    SubsetKey,
    initial_subsets_packet,
    initial_subsets_user,
    run_heuristic,
    step2_merge,
    step3_rate,
)
from .model import (
    GicInstance,
    GroupStructure,
    InstanceFormatError,
    InvalidInstanceError,
    UserId,
    generate_k2,
    load_instance,
    parse_instance,
    position_index,
    save_instance,
    validate,
)
from .oracle import (
    DEFAULT_FREE_BIT_BUDGET,
    DecodeReport,
    MinrankBudgetError,
    minrank_gf2,
    simulate_decode,
)
from .partition import (
    DEFAULT_CAP,
    PacketPartition,
    PartitionCapError,
    SchemeSolution,
    UserPartition,
    acyclic_bound,
    build_transmissions,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    group_partition,
    iupm_rate,
    ppm_as_upm,
    ppm_rate,
    upm_rate,
)

__version__ = "0.1.0"
