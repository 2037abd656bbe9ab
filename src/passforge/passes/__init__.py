"""Transform pass catalog and sequence application.

Seventeen general passes form the search agent's action space; the two
pragma-anchored passes run at a fixed pipeline position and are flagged so the
agent never schedules them.  Every executed pass re-verifies the module and
reports whether the printed canonical form changed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir import IrModule, print_module, text_digest, verify_module
from .cfg_passes import run_jump_threading, run_sccp, run_simplifycfg
from .inst_passes import (
    run_adce, run_early_cse, run_gvn, run_instcombine, run_instsimplify,
    run_reassociate,
)
from .loop_passes import (
    find_basic_iv, loop_trip_count, run_indvars, run_licm, run_loop_deletion,
    run_loop_rotate, run_loop_simplify, run_loop_unroll_partial,
    unrollable_shape,
)
from .mem_passes import run_dse, run_mem2reg
from .pragma_passes import (
    PragmaError, apply_inline_pragmas, apply_pragma_passes,
    apply_unroll_pragmas,
)
from .rewrite import block_count, instruction_count


class PassError(Exception):
    """A pass broke a structural invariant; always a bug, never swallowed."""

    def __init__(self, pass_id: "PassId", violations):
        msg = "; ".join(str(v) for v in violations)
        super().__init__(f"{pass_id.value}: {msg}")
        self.pass_id = pass_id
        self.violations = violations

    def at_step(self, i: int) -> "PassError":
        """The same error, located at step ``i`` of a sequence."""
        return PassError(self.pass_id, [f"at step {i}"] + list(self.violations))


class PassId(enum.Enum):
    SIMPLIFYCFG = "simplifycfg"
    JUMP_THREADING = "jump_threading"
    SCCP = "sccp"
    INSTCOMBINE = "instcombine"
    INSTSIMPLIFY = "instsimplify"
    ADCE = "adce"
    EARLY_CSE = "early_cse"
    REASSOCIATE = "reassociate"
    GVN = "gvn"
    LOOP_SIMPLIFY = "loop_simplify"
    LOOP_ROTATE = "loop_rotate"
    LICM = "licm"
    INDVARS = "indvars"
    LOOP_DELETION = "loop_deletion"
    LOOP_UNROLL_PARTIAL = "loop_unroll_partial"
    MEM2REG = "mem2reg"
    DSE = "dse"
    APPLY_UNROLL_PRAGMA = "apply_unroll_pragma"
    APPLY_INLINE_PRAGMA = "apply_inline_pragma"


@dataclass(frozen=True)
class CatalogEntry:
    pass_id: PassId
    category: str
    description: str
    pragma_anchored: bool = False
    idempotent: bool = False


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(PassId.SIMPLIFYCFG, "Control Flow",
                 "Fold constant branches, merge straight-line blocks, drop "
                 "unreachable and empty forwarding blocks."),
    CatalogEntry(PassId.JUMP_THREADING, "Control Flow",
                 "Bypass compare-only blocks along edges whose branch outcome "
                 "is already decided (constant or dominating-compare facts)."),
    CatalogEntry(PassId.SCCP, "Control Flow",
                 "Sparse conditional constant propagation with executable-edge "
                 "tracking; folds constant values and branches."),
    CatalogEntry(PassId.INSTCOMBINE, "Instruction",
                 "Peephole algebraic rewrites: constant folding and "
                 "canonicalization, mul-to-shift, compare-of-select folds."),
    CatalogEntry(PassId.INSTSIMPLIFY, "Instruction",
                 "Simplifications that only return existing values or "
                 "constants; never creates an instruction."),
    CatalogEntry(PassId.ADCE, "Instruction",
                 "Aggressive dead code elimination seeded from stores, calls, "
                 "and terminators.", idempotent=True),
    CatalogEntry(PassId.EARLY_CSE, "Instruction",
                 "Dominator-scoped common subexpression elimination plus "
                 "block-local load reuse."),
    CatalogEntry(PassId.REASSOCIATE, "Instruction",
                 "Rebalance add/mul chains into canonical order with constants "
                 "folded together."),
    CatalogEntry(PassId.GVN, "Variable",
                 "Dominator-scoped value numbering with commutative "
                 "canonicalization; no partial redundancy elimination."),
    CatalogEntry(PassId.LOOP_SIMPLIFY, "Loop",
                 "Insert dedicated preheaders and merge multiple latches.",
                 idempotent=True),
    CatalogEntry(PassId.LOOP_ROTATE, "Loop",
                 "Rotate while-style loops into guarded do-while form, cloning "
                 "the exit test onto the latch."),
    CatalogEntry(PassId.LICM, "Loop",
                 "Hoist pure, non-trapping loop-invariant instructions to the "
                 "preheader (loads and divisions excluded)."),
    CatalogEntry(PassId.INDVARS, "Loop",
                 "Canonicalize loop exit compares toward slt form."),
    CatalogEntry(PassId.LOOP_DELETION, "Loop",
                 "Delete side-effect-free loops with known finite trips and no "
                 "live-out values."),
    CatalogEntry(PassId.LOOP_UNROLL_PARTIAL, "Loop",
                 "Unroll canonical innermost countable loops by two, peeling a "
                 "leading iteration when the trip count is odd; replica blocks "
                 "are left for simplifycfg to merge."),
    CatalogEntry(PassId.MEM2REG, "Memory Access",
                 "Forward stored values to later same-element loads within a "
                 "block.", idempotent=True),
    CatalogEntry(PassId.DSE, "Memory Access",
                 "Delete stores overwritten before any same-array read within "
                 "a block.", idempotent=True),
    CatalogEntry(PassId.APPLY_UNROLL_PRAGMA, "Loop",
                 "Expand unroll pragmas: clean replication when the trip "
                 "divides, termination-checked replicas otherwise, full "
                 "unrolling when the factor covers the trip.",
                 pragma_anchored=True),
    CatalogEntry(PassId.APPLY_INLINE_PRAGMA, "Function/Call",
                 "Inline every call to functions carrying an inline pragma, "
                 "renaming values, labels, and loop ids.",
                 pragma_anchored=True),
)

TABLE_CATEGORIES = ("Control Flow", "Instruction", "Variable", "Loop",
                    "Function/Call", "Memory Access")

_IMPLS = {
    PassId.SIMPLIFYCFG: run_simplifycfg,
    PassId.JUMP_THREADING: run_jump_threading,
    PassId.SCCP: run_sccp,
    PassId.INSTCOMBINE: run_instcombine,
    PassId.INSTSIMPLIFY: run_instsimplify,
    PassId.ADCE: run_adce,
    PassId.EARLY_CSE: run_early_cse,
    PassId.REASSOCIATE: run_reassociate,
    PassId.GVN: run_gvn,
    PassId.LOOP_SIMPLIFY: run_loop_simplify,
    PassId.LOOP_ROTATE: run_loop_rotate,
    PassId.LICM: run_licm,
    PassId.INDVARS: run_indvars,
    PassId.LOOP_DELETION: run_loop_deletion,
    PassId.LOOP_UNROLL_PARTIAL: run_loop_unroll_partial,
    PassId.MEM2REG: run_mem2reg,
    PassId.DSE: run_dse,
}


def pass_catalog() -> list[CatalogEntry]:
    """Stable catalog; index order defines the agent's action numbering."""
    return list(_CATALOG)


def general_passes() -> list[PassId]:
    return [e.pass_id for e in _CATALOG if not e.pragma_anchored]


@dataclass
class PassResult:
    module: IrModule
    changed: bool
    pass_id: PassId
    digest: str                 # of the output module, as ``IrModule.digest``
    instructions_removed: int = 0
    instructions_added: int = 0
    blocks_removed: int = 0


def _run_pass(m: IrModule, p: PassId) -> PassResult:
    """Run one pass on a copy of the module and re-verify the result."""
    out = m.clone()
    if p is PassId.APPLY_UNROLL_PRAGMA:
        apply_unroll_pragmas(out)
    elif p is PassId.APPLY_INLINE_PRAGMA:
        apply_inline_pragmas(out)
    else:
        _IMPLS[p](out)
    violations = verify_module(out)
    if violations:
        raise PassError(p, violations)
    before = print_module(m)
    after = print_module(out)
    n_before = instruction_count(m)
    n_after = instruction_count(out)
    return PassResult(
        module=out,
        changed=before != after,
        pass_id=p,
        digest=text_digest(after),
        instructions_removed=max(0, n_before - n_after),
        instructions_added=max(0, n_after - n_before),
        blocks_removed=max(0, block_count(m) - block_count(out)),
    )


def apply_pass(m: IrModule, p: PassId | str, memo: dict | None = None
               ) -> PassResult:
    """Run one pass on a copy of the module; the result always re-verifies.

    ``memo`` is a transition table the caller owns and drops: it maps
    ``(id(m), pass)`` to ``(m, result)``, and keeping ``m`` alive keeps its
    id from being reused.  A hit returns the stored result without running
    the pass, so neither ``m`` nor any returned module may be mutated while
    the memo lives.  A pass that raises stores nothing.
    """
    if isinstance(p, str):
        p = PassId(p)
    if memo is None:
        return _run_pass(m, p)
    key = (id(m), p)
    if key not in memo:
        memo[key] = (m, _run_pass(m, p))
    return memo[key][1]


def apply_sequence(m: IrModule, seq, memo: dict | None = None
                   ) -> tuple[IrModule, list[PassResult]]:
    """Left-fold of apply_pass over the sequence; per-step results returned.

    Every step goes through ``apply_pass`` with the same ``memo`` (see
    there); a ``PassError`` names the step that raised it."""
    results: list[PassResult] = []
    cur = m
    for i, p in enumerate(seq):
        try:
            r = apply_pass(cur, p, memo)
        except PassError as e:
            raise e.at_step(i)
        results.append(r)
        cur = r.module
    return cur, results


__all__ = [
    "CatalogEntry", "PassError", "PassId", "PassResult", "PragmaError",
    "apply_inline_pragmas", "apply_pass", "apply_pragma_passes",
    "apply_sequence", "apply_unroll_pragmas", "find_basic_iv",
    "general_passes", "loop_trip_count", "pass_catalog", "unrollable_shape",
    "TABLE_CATEGORIES",
]
