"""The value types: validation at construction, immutability, equality and
hashing, truth of a verdict, and the reprs."""

from fractions import Fraction

import pytest

from gtmprod.evaluator import (
    EvalResult,
    FunctionalEquationReport,
    IdentityReport,
    ProductSpec,
)
from gtmprod.ratfun import Factor, FactorList, ProductCheck, parse_product_term
from gtmprod.sequences import MultiplicativeSequence, SequenceError, parse_seq_spec

ONE = Fraction(1)
WR_REPR = ("FactorList(factors=(Factor(alpha=2, beta=Fraction(1, 1), exponent=1), "
           "Factor(alpha=2, beta=Fraction(2, 1), exponent=-1)), constant=Fraction(1, 1))")
SEQ_REPR = "MultiplicativeSequence(q=3, signs=(1, -1, 1), spec='dcount:3:1')"
FIELD = {"FactorList": "constant", "MultiplicativeSequence": "q", "ProductSpec": "mode",
         "ProductCheck": "ok", "EvalResult": "value", "IdentityReport": "ok",
         "FunctionalEquationReport": "ok"}


def wr_term():
    return parse_product_term("(2n+1)/(2n+2)")


def values():
    seq = parse_seq_spec("dcount:3:1")
    return {
        "FactorList": wr_term(),
        "MultiplicativeSequence": seq,
        "ProductSpec": ProductSpec(seq, "delta", 0, wr_term()),
        "ProductCheck": ProductCheck(True),
        "EvalResult": EvalResult(1.0, 0.0, 0.0, "accel", 12, 16),
        "IdentityReport": IdentityReport(True, 1.0, 1.0, 0.0, 0.0, 12, "accel"),
        "FunctionalEquationReport": FunctionalEquationReport(True, "thm_f", 1.0, 1.0, 0.0, 0.0),
    }


class TestValidation:
    @pytest.mark.parametrize("factors,constant,error", [
        ((Factor(0, ONE, 1),), ONE, ValueError),
        ((Factor(-2, ONE, 1),), ONE, ValueError),
        ((Factor(1, ONE, 0),), ONE, ValueError),
        ((Factor(1, 1, 1),), ONE, TypeError),
        ((Factor(1, 0.5, 1),), ONE, TypeError),
        ((), Fraction(0), ValueError),
    ], ids=["slope-0", "slope-negative", "exponent-0", "offset-int", "offset-float",
            "constant-0"])
    def test_factor_list_rejects(self, factors, constant, error):
        with pytest.raises(error):
            FactorList(factors, constant)

    @pytest.mark.parametrize("mode", ["", "Delta", "plain", None])
    def test_product_spec_rejects_bad_mode(self, mode):
        with pytest.raises(ValueError, match="mode must be 'delta' or 'theta'"):
            ProductSpec(parse_seq_spec("gtm:2:1"), mode, 0, wr_term())

    @pytest.mark.parametrize("q,signs", [(1, (1,)), (3, (1, -1)), (2, (1, 0)), (2, (-1, 1))],
                             ids=["q-1", "length", "sign-0", "first-minus"])
    def test_sequence_rejects(self, q, signs):
        with pytest.raises(SequenceError):
            MultiplicativeSequence(q, signs, "x")

    def test_keyword_construction(self):
        term = FactorList(factors=wr_term().factors, constant=ONE)
        spec = ProductSpec(seq=parse_seq_spec("gtm:2:1"), mode="theta", start=1, term=term)
        assert term == wr_term() and (spec.mode, spec.start) == ("theta", 1)
        assert FactorList(()).constant == 1


class TestImmutable:
    @pytest.mark.parametrize("name", sorted(values()))
    def test_assigning_a_field_raises(self, name):
        value, field = values()[name], FIELD[name]
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == before


class TestEquality:
    def test_equal_values_hash_alike(self):
        for name, value in values().items():
            again = values()[name]
            assert value == again and hash(value) == hash(again), name
            assert value != "x", name

    def test_aliases_equal_and_hash_alike(self):
        names = ("gtm:3:10", "dcount:3:1", "dparity:3")
        seqs = [parse_seq_spec(s) for s in names]
        specs = [ProductSpec(s, "delta", 0, wr_term()) for s in seqs]
        for group in (seqs, specs):
            assert all(x == group[0] and hash(x) == hash(group[0]) for x in group)
        assert [s.spec for s in seqs] == list(names)
        assert len({repr(s) for s in seqs}) == 3  # the name is shown, not compared

    def test_normal_form_is_not_a_field(self):
        # the cached integer form and expansion leave equality, hashing and the
        # repr alone, and cannot be assigned
        term, fresh = wr_term(), wr_term()
        assert term.integer_form == ((1, 1), 2, ((1, 1), (2, -1)))
        assert term.log_pairs(2) == ((-1, 2, 0.5), (3, 8, 0.375))
        assert term == fresh and hash(term) == hash(fresh) and repr(term) == repr(fresh)
        with pytest.raises(AttributeError):
            term.integer_form = ((1, 1), 1, ())
        assert term.integer_form == ((1, 1), 2, ((1, 1), (2, -1)))

    def test_unequal_values(self):
        seq = parse_seq_spec("gtm:3:01")
        assert seq != parse_seq_spec("gtm:3:10") and seq != parse_seq_spec("gtm:2:1")
        assert wr_term() != FactorList(wr_term().factors, Fraction(2))
        assert wr_term() != parse_product_term("(2n+1)/(2n+3)")
        base = ProductSpec(seq, "delta", 0, wr_term())
        assert base != ProductSpec(seq, "theta", 0, wr_term())
        assert base != ProductSpec(seq, "delta", 1, wr_term())

    def test_results_are_tuples(self):
        # the four result types are NamedTuples: they compare by position,
        # also with a plain tuple, and can be indexed and unpacked
        ok, reason = ProductCheck(False, "r")
        assert (ok, reason) == (False, "r") and ProductCheck(False, "r") == (False, "r")
        result = EvalResult(1.0, 0.0, 0.0, "accel", 12, 16)
        assert result[3] == "accel" and len(result) == 6
        assert IdentityReport(True, 1.0, 1.0, 0.0, 0.0, 12, "accel") == (
            True, 1.0, 1.0, 0.0, 0.0, 12, "accel", None)
        assert FunctionalEquationReport(True, "thm_f", 1.0, 1.0, 0.0, 0.0)[1] == "thm_f"
        # the plain value classes are not tuples and equal only their own class
        assert wr_term() != (wr_term().factors, wr_term().constant)


class TestVerdict:
    def test_truth(self):
        assert not ProductCheck(False, "degree")
        assert not ProductCheck(ok=False, reason="r")
        assert ProductCheck(True) and ProductCheck(True).reason is None
        assert ProductCheck(False, "r").reason == "r"


class TestRepr:
    def test_reprs(self):
        got = {name: repr(value) for name, value in values().items()}
        assert got == {
            "FactorList": WR_REPR,
            "MultiplicativeSequence": SEQ_REPR,
            "ProductSpec": f"ProductSpec(seq={SEQ_REPR}, mode='delta', start=0, term={WR_REPR})",
            "ProductCheck": "ProductCheck(ok=True, reason=None)",
            "EvalResult": ("EvalResult(value=1.0, log_value=0.0, est_error=0.0, "
                           "method='accel', terms_used=12, dirichlet_orders=16)"),
            "IdentityReport": ("IdentityReport(ok=True, lhs_value=1.0, rhs_value=1.0, "
                               "abs_dlog=0.0, est_error=0.0, terms_used=12, method='accel', "
                               "reason=None)"),
            "FunctionalEquationReport": ("FunctionalEquationReport(ok=True, kind='thm_f', "
                                         "lhs_value=1.0, rhs_value=1.0, abs_dlog=0.0, "
                                         "est_error=0.0)"),
        }

    def test_str_is_the_name_and_the_grammar(self):
        assert str(parse_seq_spec("dcount:3:1")) == "dcount:3:1"
        assert str(wr_term()) == "(2n+1)/(2n+2)"
