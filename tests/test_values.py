"""The package's nine value classes: equality, hashing, ordering,
immutability and the validation each constructor does."""

import copy
import math

import numpy as np
import pytest

from circlelab import (ArcParams, BoundFitReport, CongruenceData,
                       CounterexampleParams, DecompositionReport, IndexedSeq,
                       IntPoly, ParameterError, ReducedFraction,
                       VariationResult)
from oracles import eval_poly

REPORT = BoundFitReport("smooth_lemma", (0, 1, 2), (0.5, 0.25, 0.125), 0.5,
                        -1.0, 0.0)
OTHER_REPORT = BoundFitReport("smooth_lemma", (0, 1, 2), (0.5, 0.25, 0.126),
                              0.5, -1.0, 0.0)

# (make, make a different value, a field to overwrite): make() twice gives
# two distinct equal objects
CASES = {
    "IntPoly": (lambda: IntPoly([0, 0, 1]), lambda: IntPoly([0, 1, 1]),
                "coeffs"),
    "ReducedFraction": (lambda: ReducedFraction(1, 3),
                        lambda: ReducedFraction(2, 3), "a"),
    "ArcParams": (lambda: ArcParams(10, 0.05, 2),
                  lambda: ArcParams(10, 0.05, 3), "n"),
    "CongruenceData": (lambda: CongruenceData(3, (1, 2)),
                       lambda: CongruenceData(3, (2, 1)), "q_i"),
    "CounterexampleParams": (lambda: CounterexampleParams(2, 14, (9, 0),
                                                          (5, 6)),
                             lambda: CounterexampleParams(2, 15, (9, 0),
                                                          (5, 6)), "R"),
    "IndexedSeq": (lambda: IndexedSeq([1, 3], [0.5, 1j]),
                   lambda: IndexedSeq([1, 4], [0.5, 1j]), "values"),
    "VariationResult": (lambda: VariationResult(1.5, (1, 3)),
                        lambda: VariationResult(1.5, (1, 4)), "value"),
    "BoundFitReport": (lambda: REPORT, lambda: OTHER_REPORT, "slope"),
    "DecompositionReport": (
        lambda: DecompositionReport(REPORT, (1, 2), (0.5, 0.25), 1.0, 2.0,
                                    2.5),
        lambda: DecompositionReport(OTHER_REPORT, (1, 2), (0.5, 0.25), 1.0,
                                    2.0, 2.5),
        "reassembly_lhs"),
}


def test_every_value_class_is_covered():
    import circlelab
    classes = {name for name in dir(circlelab)
               if isinstance(getattr(circlelab, name), type)
               and not issubclass(getattr(circlelab, name), Exception)}
    assert classes == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueSemantics:
    def test_equality(self, name):
        make, other, _ = CASES[name]
        assert make() == make()
        assert not make() != make()
        assert make() != other()
        assert make() != object()

    def test_hashing(self, name):
        # every value class hashes: equal values, equal hashes
        make, other, _ = CASES[name]
        assert hash(make()) == hash(make())
        assert len({make(), make(), other()}) == 2

    def test_immutable(self, name):
        make, _, field = CASES[name]
        x = make()
        before = copy.copy(getattr(x, field))
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is not None

    def test_repr_names_the_fields(self, name):
        make, _, field = CASES[name]
        assert repr(make()).startswith(f"{name}(")
        assert f"{field}=" in repr(make())


class TestOrdering:
    def test_reduced_fractions_order_by_numerator_then_denominator(self):
        fr = ReducedFraction
        assert fr(1, 3) < fr(2, 3)
        assert fr(1, 2) < fr(1, 3)  # fields, not values
        assert fr(2, 3) > fr(1, 2) and fr(1, 2) <= fr(1, 2) >= fr(1, 2)
        assert sorted([fr(2, 3), fr(1, 3), fr(1, 2), fr(0, 1)]) == \
            [fr(0, 1), fr(1, 2), fr(1, 3), fr(2, 3)]


class TestConstruction:
    def test_int_poly(self):
        P = IntPoly([0.0, 2, 3])
        assert P.coeffs == (0, 2, 3) and all(type(c) is int for c in P.coeffs)
        assert (P.degree, P.leading, eval_poly(P, 2)) == (2, 3, 16)
        for bad in ([3], [], [0, 0, 0], [0, -1]):
            with pytest.raises(ParameterError):
                IntPoly(bad)

    def test_reduced_fraction(self):
        assert ReducedFraction(0, 1).a == 0
        assert str(ReducedFraction(1, 3)) == "1/3"
        for a, q in ((1, 0), (0, -1), (3, 3), (-1, 3), (2, 4), (0, 2)):
            with pytest.raises(ParameterError):
                ReducedFraction(a, q)
        assert ReducedFraction(a=1, q=2) == ReducedFraction(1, 2)

    def test_arc_params(self):
        p = ArcParams(n=10, delta=0.125, degree=2)
        assert (p.n, p.delta, p.degree) == (10, 0.125, 2)
        for bad in ((0, 0.05, 2), (10, 0.0, 2), (10, 0.126, 2), (10, 0.05, 0),
                    (1000, 0.05, 2)):
            with pytest.raises(ParameterError):
                ArcParams(*bad)

    def test_indexed_seq(self):
        seq = IndexedSeq([2, 5], [1, 2j])
        assert seq.indices == (2, 5) and seq.values == (1 + 0j, 2j)
        assert len(seq) == 2 and len(IndexedSeq.from_values([1, 2, 3])) == 3
        assert IndexedSeq.from_values([1, 2]) == IndexedSeq([1, 2], [1, 2])
        for idx, vals in (([1], [1, 2]), ([2, 2], [1, 2]), ([3, 1], [1, 2]),
                          ([0, 1], [1, 2]), ([1, 2], [1, math.inf])):
            with pytest.raises(ParameterError):
                IndexedSeq(idx, vals)

    def test_plain_records_keep_their_fields(self):
        assert VariationResult(1.5, (1, 3)).block_subsequences is None
        params = CounterexampleParams(L=2, R=14, k=(9, 0), j=(5, 6))
        assert params.identity_defects() == ((1,), (7, 0))
        report = DecompositionReport(REPORT, (1,), (0.5,), 1.0, 2.0, 2.5)
        assert report.minor.values == (0.5, 0.25, 0.125)
        assert CongruenceData(q_i=4, numerators=(1,)).numerators == (1,)
        assert np.isclose(REPORT.constant, 0.5)
