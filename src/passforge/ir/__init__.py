"""SSA mini-IR: types, parser, printer, verifier, and reference interpreter."""
from .types import (
    Const, GlobalArray, GlobalRef, I1, I32, PTR, VOID, InstrClass, IrBlock,
    IrFunction, IrInstruction, IrModule, IrType, LabelRef, LoopInfo, Opcode,
    OPCODE_CLASS, PragmaDirective, PragmaKind, ValueRef, array_type,
    text_digest,
)
from .parser import IrSyntaxError, VerifyError, parse_module
from .printer import print_function, print_instruction, print_module
from .verify import Violation, verify_module
from .interp import (
    DEFAULT_FUEL, ExecResult, FuelExhausted, TrapError, check_inputs,
    fold_constant, interpret, wrap32,
)
from .analysis import (
    DomTree, Loop, LoopForest, natural_loops, pointer_target, postorder,
    predecessor_map, preheader_of, reachable_blocks, refresh_loop_annotations,
    reverse_postorder, successor_map,
)

__all__ = [
    "Const", "GlobalArray", "GlobalRef", "I1", "I32", "PTR", "VOID",
    "InstrClass", "IrBlock", "IrFunction", "IrInstruction", "IrModule",
    "IrType", "LabelRef", "LoopInfo", "Opcode", "OPCODE_CLASS",
    "PragmaDirective", "PragmaKind", "ValueRef", "array_type",
    "text_digest",
    "IrSyntaxError", "VerifyError", "parse_module",
    "print_function", "print_instruction", "print_module",
    "Violation", "verify_module",
    "DEFAULT_FUEL", "ExecResult", "FuelExhausted", "TrapError",
    "check_inputs", "fold_constant", "interpret", "wrap32",
    "DomTree", "Loop", "LoopForest", "natural_loops", "pointer_target",
    "postorder", "predecessor_map", "preheader_of", "reachable_blocks",
    "refresh_loop_annotations", "reverse_postorder", "successor_map",
]
