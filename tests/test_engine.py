from __future__ import annotations

import logging

import pytest

from stylovec.engine import (
    DocContext,
    Metric,
    MetricDescriptor,
    MetricResult,
    Registry,
    StyloVector,
    evaluate_all,
    evaluate_metric,
    schema_hash,
)
from stylovec.model import Document

from conftest import doc, sent, tok, word_sentence


def make_metric(mid, rule, **desc_kwargs):
    kwargs = dict(category="test", language="universal", description=mid)
    kwargs.update(desc_kwargs)
    return Metric(MetricDescriptor(id=mid, **kwargs), rule)


class TestRatio:
    """``_evaluate`` divides the raw count by the token count and clamps at 1."""

    @staticmethod
    def result(raw, tokens):
        d = doc(word_sentence(*"abcdefgh"[:tokens])) if tokens else \
            Document(doc_id="empty", language="en", sentences=())
        return evaluate_metric(make_metric("M", lambda ctx: ([], raw)), DocContext(d))

    def test_plain_division(self):
        assert self.result(1, 4).value == 0.25

    def test_zero_denominator_is_zero(self):
        res = self.result(5, 0)
        assert res.value == 0.0 and res.degenerate and res.error is None

    def test_clamp_and_warn_above_one(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            assert self.result(7, 2).value == 1.0
        assert any("clamping" in r.message for r in caplog.records)

    def test_exact_one_not_warned(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            assert self.result(3, 3).value == 1.0
        assert not caplog.records


class TestDocContext:
    def test_indexes(self):
        d = doc(
            sent(
                tok(0, "The", upos="DET", head=1, deprel="det"),
                tok(1, "Cat", lemma="cat", upos="NOUN", head=2, deprel="nsubj"),
                tok(2, "sat", lemma="sit", upos="VERB"),
                tok(3, ".", upos="PUNCT", head=2, deprel="punct"),
            ),
            word_sentence("cat"),
        )
        ctx = DocContext(d)
        assert ctx.upos_index["NOUN"] == [(0, 1), (1, 0)]
        assert ctx.upos_index["PUNCT"] == [(0, 3)]
        assert ctx.lemma_index["cat"] == [(0, 1), (1, 0)]  # casefolded
        assert ctx.form_index["cat"] == [(0, 1), (1, 0)]
        assert ctx.surface_index["Cat"] == [(0, 1)]  # case preserved
        assert ctx.surface_index["cat"] == [(1, 0)]
        assert len(ctx.non_punct_refs) == 4

    def test_memo_computes_once(self):
        ctx = DocContext(doc(word_sentence("a")))
        calls = []

        def factory():
            calls.append(1)
            return "x"

        assert ctx.memo("k", factory) == "x"
        assert ctx.memo("k", factory) == "x"
        assert len(calls) == 1


class TestMetricDescriptor:
    def test_id_format_enforced(self):
        with pytest.raises(ValueError):
            MetricDescriptor(id="lower", category="c", language="en", description="d")
        with pytest.raises(ValueError):
            MetricDescriptor(id="HAS SPACE", category="c", language="en", description="d")
        MetricDescriptor(id="OK_2", category="c", language="en", description="d")


class TestEvaluateMetric:
    def test_captures_deduplicated_and_sorted(self):
        d = doc(word_sentence("a", "b", "c"))
        m = make_metric("M", lambda ctx: ([(0, 2), (0, 0), (0, 2)], None))
        res = evaluate_metric(m, DocContext(d))
        assert res.captured == ((0, 0), (0, 2))
        assert res.raw_count == 2.0
        assert res.value == 2 / 3
        assert res.error is None and not res.degenerate

    def test_explicit_raw_overrides_capture_count(self):
        d = doc(word_sentence("a", "b", "c", "d"))
        m = make_metric("M", lambda ctx: ([(0, 0)], 3.0))
        res = evaluate_metric(m, DocContext(d))
        assert res.raw_count == 3.0
        assert res.value == 0.75
        assert res.captured == ((0, 0),)

    def test_fractional_raw_supported(self):
        d = doc(word_sentence("a", "b", "c", "d"))
        m = make_metric("M", lambda ctx: ([], 1.5))
        assert evaluate_metric(m, DocContext(d)).value == 1.5 / 4

    def test_negative_raw_becomes_error(self):
        d = doc(word_sentence("a"))
        m = make_metric("M", lambda ctx: ([], -1.0))
        res = evaluate_metric(m, DocContext(d))
        assert res.error is not None
        assert res.value == 0.0 and res.raw_count == 0.0 and res.captured == ()
        assert res.error == "negative raw count -1.0"

    @pytest.mark.parametrize("raw", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_raw_becomes_error(self, raw):
        d = doc(word_sentence("a", "b"))
        reg = Registry([make_metric("M", lambda ctx: ([(0, 0)], raw)),
                        make_metric("GOOD", lambda ctx: ([(0, 0)], None))])
        for captures in (True, False):
            v = evaluate_all(reg, d, captures=captures)
            assert v.values == (0.0, 0.5)
            assert v.raw_counts == (0.0, 1.0)
            assert v.flags == ((0, f"raw count {raw} is not finite", False),)

    def test_rule_exception_becomes_error_result(self, caplog):
        d = doc(word_sentence("a"))

        def boom(ctx):
            raise RuntimeError("kaput")

        with caplog.at_level(logging.WARNING, logger="stylovec"):
            res = evaluate_metric(make_metric("M", boom), DocContext(d))
        assert res.value == 0.0
        assert res.error == "kaput"
        assert any("M" in r.message for r in caplog.records)

    def test_zero_token_document_degenerate(self):
        d = Document(doc_id="empty", language="en", sentences=())
        m = make_metric("M", lambda ctx: ([], 0.0))
        res = evaluate_metric(m, DocContext(d))
        assert res.degenerate is True
        assert res.value == 0.0


class TestRegistry:
    def metrics(self):
        return [
            make_metric("A_ONE", lambda ctx: ([], 0.0), category="alpha"),
            make_metric("A_TWO", lambda ctx: ([], 0.0), category="alpha"),
            make_metric("B_ONE", lambda ctx: ([], 0.0), category="beta"),
        ]

    def test_order_and_lookup(self):
        reg = Registry(self.metrics())
        assert reg.ids() == ("A_ONE", "A_TWO", "B_ONE")
        assert reg.categories() == ("alpha", "beta")
        assert "A_TWO" in reg and "NOPE" not in reg
        assert reg.get("B_ONE").id == "B_ONE"
        assert len(reg) == 3

    def test_duplicate_id_rejected(self):
        reg = Registry(self.metrics())
        with pytest.raises(ValueError, match="duplicate"):
            reg.register(make_metric("A_ONE", lambda ctx: ([], 0.0)))

    def test_subset_by_category(self):
        reg = Registry(self.metrics())
        assert reg.subset(categories=["alpha"]).ids() == ("A_ONE", "A_TWO")

    def test_subset_by_ids(self):
        reg = Registry(self.metrics())
        assert reg.subset(ids=["B_ONE", "A_ONE"]).ids() == ("A_ONE", "B_ONE")

    def test_subset_union_of_filters(self):
        reg = Registry(self.metrics())
        assert reg.subset(categories=["beta"], ids=["A_ONE"]).ids() == ("A_ONE", "B_ONE")

    def test_subset_unknown_names_raise(self):
        reg = Registry(self.metrics())
        with pytest.raises(KeyError, match="gamma"):
            reg.subset(categories=["gamma"])
        with pytest.raises(KeyError, match="NOPE"):
            reg.subset(ids=["NOPE"])

    def test_unfiltered_subset_is_copy(self):
        reg = Registry(self.metrics())
        copy = reg.subset()
        assert copy.ids() == reg.ids()
        copy.register(make_metric("C_ONE", lambda ctx: ([], 0.0)))
        assert "C_ONE" not in reg


class TestSchemaHash:
    def test_depends_on_order_and_content(self):
        a = schema_hash(["X", "Y"])
        assert a == schema_hash(["X", "Y"])
        assert a != schema_hash(["Y", "X"])
        assert a != schema_hash(["X"])
        assert len(a) == 64 and int(a, 16) >= 0


class TestStyloVector:
    def test_aligned_vector(self):
        v = StyloVector("d", ("A", "B"), (0.5, 0.25), (0.5, 0.25))
        assert v.values == (0.5, 0.25)
        assert v.as_dict() == {"A": 0.5, "B": 0.25}
        assert len(v) == 2
        assert v.schema_hash == schema_hash(["A", "B"])

    def test_length_mismatch_rejected(self):
        for column in ("values", "raw_counts", "captured"):
            columns = dict(values=(0.0, 0.0), raw_counts=(0.0, 0.0), captured=((), ()))
            columns[column] = columns[column][:1]
            with pytest.raises(ValueError, match=f"{column} length mismatch"):
                StyloVector("d", ("A", "B"), **columns)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_flag_outside_vector_rejected(self, index):
        with pytest.raises(ValueError, match="outside the vector"):
            StyloVector("d", ("A", "B"), (0.0, 0.0), (0.0, 0.0), flags=((index, "boom", False),))

    def test_results_view_follows_ids_and_applies_flags(self):
        v = StyloVector("d", ("A", "B", "C"), (0.5, 0.0, 0.0), (1.0, 0.0, 3.0),
                        flags=((1, "boom", False), (2, None, True)))
        assert v.results == (
            MetricResult("A", 0.5, 1.0, ()),
            MetricResult("B", 0.0, 0.0, (), error="boom"),
            MetricResult("C", 0.0, 3.0, (), degenerate=True),
        )
        captured = StyloVector("d", ("A", "B"), (0.5, 0.0), (1.0, 0.0), captured=(((0, 1),), ()))
        assert [r.captured for r in captured.results] == [((0, 1),), ()]


class TestEvaluateAll:
    def test_vector_in_registry_order(self):
        d = doc(word_sentence("a", "b"), word_sentence("c", "d"))
        reg = Registry([
            make_metric("ALL", lambda ctx: ([r[:2] for r in ctx.refs], None)),
            make_metric("NONE", lambda ctx: ([], None)),
        ])
        v = evaluate_all(reg, d)
        assert v.doc_id == "t"
        assert v.metric_ids == ("ALL", "NONE")
        assert v.values == (1.0, 0.0)
        assert v.results[0].captured == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_all(Registry(), doc(word_sentence("a")))

    def test_normalization_contract_holds(self):
        d = doc(word_sentence(*"abcdefgh"))
        reg = Registry([make_metric("HALF", lambda ctx: ([(0, i) for i in range(4)], None))])
        v = evaluate_all(reg, d)
        res = v.results[0]
        assert res.value == res.raw_count / d.token_count == 0.5

    @pytest.mark.parametrize("bad", ["x", (0,), (0, 0, 0), (0, "1"), ("0", 1), frozenset({0, 1}),
                                     (0, 8), (1, 0), (-1, 0)],
                             ids=["str", "single", "triple", "str-token", "str-sentence", "frozenset",
                                  "token-past-end", "no-such-sentence", "negative"])
    def test_bad_ref_is_the_same_error_with_or_without_captures(self, bad):
        d = doc(word_sentence(*"abcdefgh"))
        reg = Registry([make_metric("BAD", lambda ctx: ([(0, 0), bad], None)),
                        make_metric("GOOD", lambda ctx: ([(0, 0)], None))])
        message = f"ref {bad!r} is not a (sentence, token) pair of the document"
        for captures in (True, False):
            v = evaluate_all(reg, d, captures=captures)
            assert v.values == (0.0, 0.125)
            assert v.raw_counts == (0.0, 1.0)
            assert v.flags == ((0, message, False),)

    def test_captures_are_the_documents_own_int_pairs(self):
        d = doc(word_sentence(*"abcd"))
        reg = Registry([make_metric("FLOAT", lambda ctx: ([(0.0, 1), (0, 2.0)], None))])
        v = evaluate_all(reg, d)
        assert v.captured == (((0, 1), (0, 2)),)
        assert all(type(i) is int for ref in v.captured[0] for i in ref)
        assert v.values == evaluate_all(reg, d, captures=False).values == (0.5,)
