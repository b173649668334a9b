"""Value semantics of the package's plain classes and records: equal values
built apart compare and hash equal, validation raises as documented, records
refuse assignment, no value is a tuple to arithmetic, and an operator given
a value of another class raises TypeError."""

from fractions import Fraction

import pytest

from nilwitness import coinv as cv
from nilwitness import freelie as fl
from nilwitness import lamplighter as lp
from nilwitness import magnus as mg
from nilwitness import series as sr
from nilwitness import witness as wt


def _equal_pairs():
    basis = fl.hall_basis(6)
    return [
        (sr.PrimeField(7), sr.ring_from_tag("Z/7")),
        (sr.IntegerRing(), sr.ZZ),
        (sr.RationalRing(), sr.QQ),
        (basis, fl.hall_basis(6)),
        (
            sr.TruncatedSeries.from_coeffs(sr.QQ, 4, (1, Fraction(1, 2))),
            sr.TruncatedSeries.from_coeffs(sr.QQ, 4, [Fraction(1), Fraction(1, 2), 0]),
        ),
        (lp.phi_word("[a,b,b]", "Z", 5), lp.LampElement(sr.TruncatedSeries.monomial(sr.ZZ, 5, 2), 0)),
        (basis.from_words({"aab": 2, "ab": -1}), fl.hall_basis(6).from_words({"ab": -1, "aab": 2})),
        (cv.InvolutiveField(-1, 2), cv.InvolutiveField(-1, 2)),
        (wt.PropertyResult(True), wt.PropertyResult(True, "")),
    ]


@pytest.mark.parametrize("x, y", _equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_built_apart_are_equal_and_hash_equal(x, y):
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_values_differ_by_their_fields_and_class():
    basis = fl.hall_basis(6)
    assert sr.PrimeField(5) != sr.PrimeField(7)
    assert sr.ZZ != sr.QQ
    # the memos of a basis are not compared
    basis.expansion("aab")
    assert basis == fl.hall_basis(6) != fl.hall_basis(5)
    one = sr.TruncatedSeries.one(sr.ZZ, 3)
    assert one != sr.TruncatedSeries.one(sr.ZZ, 4)
    assert one != sr.TruncatedSeries.one(sr.PrimeField(3), 3)
    assert lp.LampElement(one, 0) != lp.LampElement(one, 1)
    assert cv.InvolutiveField(-1, 2) != cv.InvolutiveField(-1, 3)


def test_repr_names_the_fields():
    assert repr(sr.PrimeField(7)) == "PrimeField(p=7)"
    assert repr(sr.TruncatedSeries.one(sr.ZZ, 2)) == "TruncatedSeries(ring=IntegerRing(), trunc=2, coeffs=(1, 0))"
    assert repr(fl.hall_basis(2)) == "HallBasis(max_weight=2, words=('a', 'b', 'ab'))"
    assert repr(cv.InvolutiveField(-1, 2)) == "InvolutiveField(d=-1, dim=2)"


def test_validation_raises_with_its_message():
    with pytest.raises(ValueError, match=r"^characteristic 2 is not supported \(odd primes only\)$"):
        sr.PrimeField(2)
    with pytest.raises(ValueError, match=r"^9 is not an odd prime$"):
        sr.PrimeField(9)
    with pytest.raises(ValueError, match=r"^d = 4 gives a trivial involution \(not a field extension\)$"):
        cv.InvolutiveField(4, 2)
    with pytest.raises(ValueError, match=r"^V must be nonzero$"):
        cv.InvolutiveField(-1, 0)
    basis = fl.hall_basis(3)
    for coeffs in ({"ab": 0}, {"ba": 1}, {"aaab": 1}):
        with pytest.raises(ValueError, match=r"^invalid coefficient map$"):
            fl.FreeLieElement(basis, coeffs)


def test_records_refuse_assignment():
    pair = wt.build_witness((1,), 4)
    space = cv.build_coinvariants(sr.QQ, 4)
    for record, field in ((pair, "K"), (pair.report, "p0"), (pair.report.p0, "ok"), (space, "rank")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def _mixed_operands():
    series = sr.TruncatedSeries.one(sr.ZZ, 3)
    lamp = lp.LampElement(series, 0)
    lie = fl.hall_basis(3).gen("a")
    return {
        "series * 2": lambda: series * 2,
        "series + 1": lambda: series + 1,
        "series - 1": lambda: series - 1,
        "magnus * 2": lambda: mg.MagnusElement.one(3) * 2,
        "magnus * series": lambda: mg.MagnusElement.one(3) * series,
        "lamp * 2": lambda: lamp * 2,
        "lamp * series": lambda: lamp * series,
        "lie + 2": lambda: lie + 2,
        "lie - 2": lambda: lie - 2,
    }


@pytest.mark.parametrize("name", sorted(_mixed_operands()))
def test_operators_with_another_class_raise_type_error(name):
    # each operator returns NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        _mixed_operands()[name]()


def test_series_is_no_sequence_to_arithmetic():
    one = sr.TruncatedSeries.one(sr.ZZ, 3)
    with pytest.raises(TypeError):
        2 * one
    with pytest.raises(TypeError):
        len(one)
