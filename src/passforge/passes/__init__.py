"""Transform pass catalog and sequence application.

The catalog is the one pass table: each entry names a pass, its
implementation, its category and its description.  Seventeen general passes
form the search agent's action space; the two pragma-anchored passes run at
a fixed pipeline position and are flagged so the agent never schedules them.

A pass only transforms: it neither verifies nor undoes its rewrites, and it
keeps no loop annotations.  The driver, ``_transform``, does that work once
per pass that writes.  A pass takes a module that verifies and runs on a
copy of it.  One whose copy still equals its input, field for field,
changed nothing: the driver returns the input without refreshing,
verifying or printing, and keeps the untouched copy as the working copy of
the next pass run on that input, so a run of no-ops on one module clones
it once.  Any other output is refreshed, re-verified and reports whether
it changed by comparing the digest of its printed output with the input's.
A loop that a pass deletes takes its unroll and pipeline pragmas along.
``apply_pass`` records each pass run in a ``Transitions`` table, which also
holds that one spare copy.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..ir import (
    IrModule, PragmaKind, branch_violations, print_module,
    refresh_loop_annotations, text_digest, verify_module,
)
from ..ir.types import PlainEnum
from .cfg_passes import run_jump_threading, run_sccp, run_simplifycfg
from .inst_passes import (
    run_adce, run_early_cse, run_gvn, run_instcombine, run_instsimplify,
    run_reassociate,
)
from .loop_passes import (
    loop_trip_count, run_indvars, run_licm, run_loop_deletion,
    run_loop_rotate, run_loop_simplify, run_loop_unroll_partial,
)
from .mem_passes import run_dse, run_mem2reg
from .pragma_passes import (
    PragmaError, apply_inline_pragmas, apply_unroll_pragmas,
)


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


class PassId(PlainEnum):
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
    run: Callable[[IrModule], None]     # rewrites the module in place
    category: str
    description: str
    pragma_anchored: bool = False


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(PassId.SIMPLIFYCFG, run_simplifycfg, "Control Flow",
                 "Fold constant branches, merge straight-line blocks, drop "
                 "unreachable and empty forwarding blocks."),
    CatalogEntry(PassId.JUMP_THREADING, run_jump_threading, "Control Flow",
                 "Bypass compare-only blocks along edges whose branch outcome "
                 "is already decided (constant or dominating-compare facts)."),
    CatalogEntry(PassId.SCCP, run_sccp, "Control Flow",
                 "Sparse conditional constant propagation with executable-edge "
                 "tracking; folds constant values and branches."),
    CatalogEntry(PassId.INSTCOMBINE, run_instcombine, "Instruction",
                 "Peephole algebraic rewrites: constant folding and "
                 "canonicalization, mul-to-shift, compare-of-select folds."),
    CatalogEntry(PassId.INSTSIMPLIFY, run_instsimplify, "Instruction",
                 "Simplifications that only return existing values or "
                 "constants; never creates an instruction."),
    CatalogEntry(PassId.ADCE, run_adce, "Instruction",
                 "Aggressive dead code elimination seeded from stores, calls, "
                 "and terminators."),
    CatalogEntry(PassId.EARLY_CSE, run_early_cse, "Instruction",
                 "Dominator-scoped common subexpression elimination plus "
                 "block-local load reuse."),
    CatalogEntry(PassId.REASSOCIATE, run_reassociate, "Instruction",
                 "Rebalance add/mul chains into canonical order with constants "
                 "folded together."),
    CatalogEntry(PassId.GVN, run_gvn, "Variable",
                 "Dominator-scoped value numbering with commutative "
                 "canonicalization; no partial redundancy elimination."),
    CatalogEntry(PassId.LOOP_SIMPLIFY, run_loop_simplify, "Loop",
                 "Insert dedicated preheaders and merge multiple latches."),
    CatalogEntry(PassId.LOOP_ROTATE, run_loop_rotate, "Loop",
                 "Rotate while-style loops into guarded do-while form, cloning "
                 "the exit test onto the latch."),
    CatalogEntry(PassId.LICM, run_licm, "Loop",
                 "Hoist pure, non-trapping loop-invariant instructions to the "
                 "preheader (loads and divisions excluded)."),
    CatalogEntry(PassId.INDVARS, run_indvars, "Loop",
                 "Canonicalize loop exit compares toward slt form."),
    CatalogEntry(PassId.LOOP_DELETION, run_loop_deletion, "Loop",
                 "Delete side-effect-free loops with known finite trips and no "
                 "live-out values."),
    CatalogEntry(PassId.LOOP_UNROLL_PARTIAL, run_loop_unroll_partial, "Loop",
                 "Unroll canonical innermost countable loops by two, peeling a "
                 "leading iteration when the trip count is odd; replica blocks "
                 "are left for simplifycfg to merge."),
    CatalogEntry(PassId.MEM2REG, run_mem2reg, "Memory Access",
                 "Forward stored values to later same-element loads within a "
                 "block."),
    CatalogEntry(PassId.DSE, run_dse, "Memory Access",
                 "Delete stores overwritten before any same-array read within "
                 "a block."),
    CatalogEntry(PassId.APPLY_UNROLL_PRAGMA, apply_unroll_pragmas, "Loop",
                 "Expand unroll pragmas: clean replication when the trip "
                 "divides, termination-checked replicas otherwise, full "
                 "unrolling when the factor covers the trip.",
                 pragma_anchored=True),
    CatalogEntry(PassId.APPLY_INLINE_PRAGMA, apply_inline_pragmas,
                 "Function/Call",
                 "Inline every call to functions carrying an inline pragma, "
                 "renaming values, labels, and loop ids.",
                 pragma_anchored=True),
)

#: The catalog's implementations by id, the one lookup ``_transform`` makes.
_IMPLS = {e.pass_id: e.run for e in _CATALOG}


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


class Transitions(dict):
    """A transition table the caller owns and drops: ``(digest, pass)`` to
    the pass's result (see ``apply_pass``), so ``len`` counts the passes
    run.  ``spare`` is not an entry: it is ``(module, copy)`` when the last
    pass run left its working copy equal to ``module``, else ``None``.  The
    next pass run takes it, and works on the copy if it runs on ``module``."""
    spare: tuple[IrModule, IrModule] | None = None


def _transform(m: IrModule, p: PassId, table: Transitions) -> IrModule:
    """Run one pass on a copy of ``m``, which must verify.  A copy the pass
    leaves equal to ``m`` changed nothing: ``m`` itself is returned, and the
    copy, which shares nothing with ``m``, waits in ``table.spare`` to be
    the working copy of the next pass run on ``m``.  Any other copy has
    each function's loop annotations refreshed and is verified.  Where the
    pass deleted loops and created none, their unroll and pipeline pragmas
    go too; a loop that survives under a new id (its header annotation
    lost) keeps them, and verification reports them.  A function whose CFG
    cannot be read from its branches (``branch_violations``) is not
    refreshed; verification reports it.

    The verdict comes before the refresh, so a pass that writes nothing
    leaves ``m`` as it is even where a refresh would annotate more of its
    blocks; for a refresh fixpoint, such as every module this returns as
    changed, the verdict is the same either way.

    Refresh and verify share one CFG analysis per function: the refresh
    leaves each function's loop forest memoized on it, and the verifier
    reads it there (see ``ir.analysis.natural_loops``)."""
    spare, table.spare = table.spare, None
    out = spare[1] if spare is not None and spare[0] is m else m.clone()
    _IMPLS[p](out)
    if out == m:
        table.spare = (m, out)
        return m
    before = {fn.name: {b.loop_info.loop_id for b in fn.blocks
                        if b.loop_info is not None and b.loop_info.is_header}
              for fn in m.functions}
    for fn in out.functions:
        if branch_violations(fn):
            continue    # no CFG to refresh; the verifier reports why
        ids = {l.loop_id for l in refresh_loop_annotations(fn).loops}
        gone = before[fn.name] - ids
        if gone and ids <= before[fn.name]:
            fn.pragmas = [q for q in fn.pragmas if q.target not in gone or
                          q.kind not in (PragmaKind.UNROLL, PragmaKind.PIPELINE)]
    violations = verify_module(out)
    if violations:
        raise PassError(p, violations)
    return out


def apply_pass(m: IrModule, p: PassId, memo: Transitions | None = None,
               digest: str | None = None) -> PassResult:
    """Run one pass on a copy of ``m``, which must verify; the result
    verifies too.  A pass that changes nothing returns ``m`` itself, and
    one whose output equals ``m`` field for field neither refreshes,
    verifies nor prints it.

    ``digest`` is ``m.digest()`` when the caller holds it, which spares
    printing ``m``.  ``memo`` holds the transitions run so far, a fresh
    table when the caller passes none: a hit returns the stored result
    without running the pass, for any module that prints as ``m`` does, so
    no module passed in or returned may be mutated while the table lives.
    The stored module is the child, or ``m`` itself when the pass changed
    nothing; a pass that raises stores nothing and leaves no spare copy.
    """
    if digest is None:
        digest = text_digest(print_module(m))
    if memo is None:
        memo = Transitions()
    key = (digest, p)
    if key not in memo:
        out = _transform(m, p, memo)
        after = digest if out is m else text_digest(print_module(out))
        memo[key] = (PassResult(m, False, p, digest) if after == digest
                     else PassResult(out, True, p, after))
    return memo[key]


def apply_pragma_passes(m: IrModule) -> IrModule:
    """Expand inline, then unroll pragmas, each through ``_transform`` like
    every other pass; pipeline and array_partition pragmas remain as
    estimator metadata.  A design with nothing to expand comes back as
    itself, not as a copy."""
    table = Transitions()
    return _transform(_transform(m, PassId.APPLY_INLINE_PRAGMA, table),
                      PassId.APPLY_UNROLL_PRAGMA, table)


def apply_sequence(m: IrModule, seq, memo: Transitions | None = None,
                   digest: str | None = None
                   ) -> tuple[IrModule, list[PassResult]]:
    """Left-fold of apply_pass over the sequence; per-step results returned.

    Every step goes through ``apply_pass`` with the same ``memo`` (a fresh
    table when the caller passes none) and the digest of its input:
    ``digest`` (``m``'s, when the caller holds it) for the first step, the
    previous result's for the others, so each executed pass prints only its
    output.  A ``PassError`` names the step that raised it."""
    if memo is None:
        memo = Transitions()
    results: list[PassResult] = []
    cur = m
    for i, p in enumerate(seq):
        try:
            r = apply_pass(cur, p, memo, digest)
        except PassError as e:
            raise e.at_step(i)
        results.append(r)
        cur, digest = r.module, r.digest
    return cur, results


__all__ = [
    "CatalogEntry", "PassError", "PassId", "PassResult", "PragmaError",
    "Transitions", "apply_pass", "apply_pragma_passes", "apply_sequence",
    "general_passes", "loop_trip_count", "pass_catalog",
]
