"""The RefinedC type system: refinement + ownership types for C (§4–§6),
expressed as Lithium rules and driven by the checker."""

from .checker import (FnCtx, FunctionResult, GlobalSpec, ProgramResult,
                      TypedProgram, check_function, missing_body_result,
                      verification_targets)
from .judgments import LocType, TokenAtom, ValType
from .spec import (FunctionSpec, RawFunctionAnnotations, RawStructAnnotations,
                   ShrPtr, SpecContext, SpecError, build_function_spec,
                   define_struct_type, parse_assertion, parse_type)
from .types import (ArrayT, AtomicBoolT, BoolT, ConstrainedT, ExistsT, FnT,
                    IntT, NamedT, NullT, OptionalT, OwnPtr, PaddedT, RType,
                    StructT, TypeDef, TypeTable, UninitT, ValueT, WandT)

__all__ = [
    "ArrayT", "AtomicBoolT", "BoolT", "ConstrainedT", "ExistsT", "FnCtx",
    "FnT", "FunctionResult", "FunctionSpec", "GlobalSpec", "IntT",
    "LocType", "NamedT", "NullT", "OptionalT", "OwnPtr", "PaddedT",
    "ProgramResult", "RType", "RawFunctionAnnotations",
    "RawStructAnnotations", "ShrPtr", "SpecContext", "SpecError", "StructT",
    "TokenAtom", "TypeDef", "TypeTable", "TypedProgram", "UninitT",
    "ValType", "ValueT", "WandT", "build_function_spec", "check_function",
    "define_struct_type", "missing_body_result",
    "parse_assertion", "parse_type", "verification_targets",
]
