"""Exact symbolic computation in free nilpotent quotients, completed
lamplighter groups, and truncated exterior-square coinvariants.

coinv, with linalg and series beneath it, loads with the package: the CLI
loads the three for every command, and with them a program that reads witness
(which loads the other five) holds all eight modules, whose functions the
bench tracer rebinds.  Every other submodule, and each public name, is
imported on first access (PEP 562), so no Magnus or Lie code loads until it
is read.  A resolved name is not stored
here: each access reads the defining module's binding, so a function that is
rebound there (by a test's monkeypatch, or the bench tracer's wrapper) is
rebound here too, and restored with it."""

import importlib

from . import coinv  # noqa: F401

# the README's "Public surface", module by module: a name that a submodule
# defines or imports is not public unless it is listed here
_SURFACE = {
    "coinv": "CoinvariantSpace InvolutiveField build_coinvariants pairing theta",
    "freelie": "FreeLieElement HallBasis WeightOverflowError bracket check_identity"
    " engel_lie hall_basis present_with_generators witt_number",
    "lamplighter": "LampElement gamma_weight_lamp phi_word",
    "linalg": "",
    "magnus": "MagnusElement check_group_identity commutator eval_word gamma_weight leading_lie",
    "series": "INFINITE_WEIGHT PrimeField QQ TruncatedSeries ZZ check_augmentation_iso"
    " rat_pow ring_from_tag sigma_tilde",
    "witness": "Report WitnessPair build_witness verify_witness witness_series",
    "words": "WordExpr alternating_engel_product engel parse_word_expr",
}
_OWNER = {name: module for module, names in _SURFACE.items() for name in names.split()}

__all__ = [*_OWNER, *_SURFACE]


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _SURFACE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f"{__name__}.{module}")
    return found if module == name else getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__})
