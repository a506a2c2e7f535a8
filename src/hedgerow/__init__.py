"""Encrypted multi-class inference over slot-batched exact HE."""

from .errors import (
    DepthExhaustedError,
    FingerprintMismatchError,
    HedgerowError,
    MissingGaloisKeyError,
    ModelFormatError,
    NoiseBudgetError,
    ParamError,
    SerializationError,
)
from .params import HeParams, gen_params, load_params, make_test_params, save_params
from .scheme import Backend, Ciphertext, EvalKeys, HeBackend, PackedPlaintext, PublicKey
from .scheme import SecretKey, keygen
from .clear import ClearBackend, CountingBackend

__all__ = [
    "Backend",
    "Ciphertext",
    "ClearBackend",
    "CountingBackend",
    "DepthExhaustedError",
    "EvalKeys",
    "FingerprintMismatchError",
    "HeBackend",
    "HedgerowError",
    "HeParams",
    "MissingGaloisKeyError",
    "ModelFormatError",
    "NoiseBudgetError",
    "PackedPlaintext",
    "ParamError",
    "PublicKey",
    "SecretKey",
    "SerializationError",
    "gen_params",
    "keygen",
    "load_params",
    "make_test_params",
    "save_params",
]
