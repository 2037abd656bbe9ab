"""SSA mini-IR: types, parser, printer, verifier, and reference interpreter."""
from .types import (
    Const, GlobalArray, GlobalRef, I1, I32, PTR, VOID, InstrClass, IrBlock,
    IrFunction, IrInstruction, IrModule, IrType, LabelRef, LoopInfo, Opcode,
    OPCODE_CLASS, OPCODES, PragmaDirective, PragmaKind, ValueRef, array_type,
    fold_constant, text_digest, wrap32,
)
from .parser import IrSyntaxError, VerifyError, parse_module
from .printer import print_function, print_instruction, print_module
from .verify import Violation, branch_violations, verify_module
from .interp import (
    DEFAULT_FUEL, ExecResult, FuelExhausted, TrapError, check_inputs,
    interpret,
)
from .analysis import (
    DomTree, Loop, LoopForest, dedicated_preheader, natural_loops,
    pointer_target, postorder, refresh_loop_annotations,
)

__all__ = [
    "Const", "GlobalArray", "GlobalRef", "I1", "I32", "PTR", "VOID",
    "InstrClass", "IrBlock", "IrFunction", "IrInstruction", "IrModule",
    "IrType", "LabelRef", "LoopInfo", "Opcode", "OPCODE_CLASS", "OPCODES",
    "PragmaDirective", "PragmaKind", "ValueRef", "array_type",
    "fold_constant", "text_digest", "wrap32",
    "IrSyntaxError", "VerifyError", "parse_module",
    "print_function", "print_instruction", "print_module",
    "Violation", "branch_violations", "verify_module",
    "DEFAULT_FUEL", "ExecResult", "FuelExhausted", "TrapError",
    "check_inputs", "interpret",
    "DomTree", "Loop", "LoopForest", "dedicated_preheader", "natural_loops",
    "pointer_target", "postorder", "refresh_loop_annotations",
]
