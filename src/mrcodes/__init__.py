"""Construction and verification kit for maximally recoverable codes with
locality r and dimension r+1 over prime fields."""

from .codespec import code_from_dict, code_to_dict, load_code, save_code
from .family import FamilyParams, ZeroSumFamily, build_family
from .field import Field, FieldElement, make_field
from .mrcode import (MrCode, MrReport, build_code, decode, encode, is_correctable,
                     local_repair, verify_mr)
from .pipeline import (SimReport, choose_params, construct,
                       exact_failure_probability, scaling_table, simulate)
from .progfree import (AlonMeta, ProgressionFreeSet, alon_construct,
                       exhaustive_best, verify_progression_free)

__all__ = [
    "AlonMeta", "FamilyParams", "Field", "FieldElement",
    "MrCode", "MrReport", "ProgressionFreeSet", "SimReport", "ZeroSumFamily",
    "alon_construct", "build_code", "build_family", "choose_params",
    "code_from_dict", "code_to_dict", "construct", "decode", "encode",
    "exact_failure_probability", "exhaustive_best", "is_correctable",
    "load_code", "local_repair", "make_field", "save_code",
    "scaling_table", "simulate", "verify_mr", "verify_progression_free",
]
