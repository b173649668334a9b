"""Exact symbolic computation in free nilpotent quotients, completed
lamplighter groups, and truncated exterior-square coinvariants."""

from . import coinv, freelie, lamplighter, linalg, magnus, series, witness, words
from .freelie import (
    FreeLieElement,
    HallBasis,
    WeightOverflowError,
    bracket,
    check_identity,
    engel_lie,
    hall_basis,
    present_with_generators,
    witt_number,
)
from .lamplighter import LampElement, gamma_weight_lamp, phi_word
from .magnus import (
    INFINITE_WEIGHT,
    MagnusElement,
    check_group_identity,
    commutator,
    eval_word,
    gamma_weight,
    leading_lie,
)
from .series import (
    PrimeField,
    QQ,
    TruncatedSeries,
    ZZ,
    check_augmentation_iso,
    rat_pow,
    ring_from_tag,
    sigma_tilde,
)
from .coinv import (
    CoinvariantSpace,
    InvolutiveField,
    build_coinvariants,
    pairing,
    theta,
)
from .witness import (
    Report,
    WitnessPair,
    build_witness,
    verify_witness,
    witness_series,
)
from .words import (
    WordExpr,
    alternating_engel_product,
    engel,
    parse_word_expr,
)

# the README's "Public surface", module by module: a name that a submodule
# import brings in is not public unless it is listed here
__all__ = [
    "CoinvariantSpace", "InvolutiveField", "build_coinvariants", "pairing", "theta",
    "FreeLieElement", "HallBasis", "WeightOverflowError", "bracket", "check_identity",
    "engel_lie", "hall_basis", "present_with_generators", "witt_number",
    "LampElement", "gamma_weight_lamp", "phi_word",
    "MagnusElement", "check_group_identity", "commutator", "eval_word", "gamma_weight",
    "leading_lie",
    "INFINITE_WEIGHT", "PrimeField", "QQ", "TruncatedSeries", "ZZ", "check_augmentation_iso",
    "rat_pow", "ring_from_tag", "sigma_tilde",
    "Report", "WitnessPair", "build_witness", "verify_witness", "witness_series",
    "WordExpr", "alternating_engel_product", "engel", "parse_word_expr",
    "coinv", "freelie", "lamplighter", "linalg", "magnus", "series", "witness", "words",
]
