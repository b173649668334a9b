"""Exact symbolic computation in free nilpotent quotients, completed
lamplighter groups, and truncated exterior-square coinvariants."""

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
    LaurentPoly,
    PrimeField,
    QQ,
    TruncatedSeries,
    ZZ,
    antipode,
    check_augmentation_iso,
    rat_pow,
    ring_from_tag,
    sigma_tilde,
    tau,
    tau_q,
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
    GroupWord,
    WordExpr,
    alternating_engel_product,
    engel,
    parse_word_expr,
)

__all__ = [name for name in dir() if not name.startswith("_")]
