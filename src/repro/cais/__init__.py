"""CAIS core: compute-aware ISA, merge unit, TB coordination, dataflow."""

from .compiler import (
    BlockIdx,
    CompiledKernel,
    Const,
    Env,
    Expr,
    GpuId,
    KernelIR,
    MemInstr,
    MemOpKind,
    Param,
    TBGroup,
    compile_kernel,
    reset_group_ids,
)
from .coordination import (
    GroupSyncTable,
    SyncPhase,
    plane_for_group,
)
from .isa import CAIS_OPS, is_cais_request, mnemonic
from .merge_unit import MergeUnit, SessionKind, Status, entries_for

# NOTE: the dataflow optimizer is intentionally NOT re-exported here.
# repro.cais.dataflow imports the GPU executor and the LLM tiling layer,
# both of which import back into repro.cais (compiler, coordination);
# importing it from this package __init__ would close that cycle.  Use
# ``from repro.cais.dataflow import CaisRunner`` directly.

__all__ = [
    "BlockIdx",
    "CAIS_OPS",
    "is_cais_request",
    "mnemonic",
    "CompiledKernel",
    "Const",
    "Env",
    "Expr",
    "GpuId",
    "GroupSyncTable",
    "KernelIR",
    "MemInstr",
    "MemOpKind",
    "MergeUnit",
    "Param",
    "SessionKind",
    "Status",
    "SyncPhase",
    "TBGroup",
    "compile_kernel",
    "entries_for",
    "plane_for_group",
    "reset_group_ids",
]
