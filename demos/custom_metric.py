"""Custom metrics: add your own rules next to the bundled ones.

Defines two new metrics from the building blocks the package exposes —
a token pattern over morphological features and a hand-written rule
function — builds a registry of them and a slice of the stock English
registry, and evaluates everything in one pass.

Run:  python3 demos/custom_metric.py
"""

from stylovec import (
    DocContext,
    Metric,
    MetricDescriptor,
    Registry,
    evaluate_all,
    parse_conllu,
    registry_for,
)
from stylovec.universal import TokenTest, token_pattern

DOCUMENT = """\
# language = en
1\tShe\tshe\tPRON\t_\tPronType=Prs\t2\tnsubj\t_\t_
2\twrote\twrite\tVERB\t_\tTense=Past|VerbForm=Fin\t0\troot\t_\t_
3\tthree\tthree\tNUM\t_\t_\t4\tnummod\t_\t_
4\tletters\tletter\tNOUN\t_\tNumber=Plur\t2\tobj\t_\tSpaceAfter=No
5\t,\t,\tPUNCT\t_\t_\t2\tpunct\t_\t_
6\tthen\tthen\tADV\t_\t_\t7\tadvmod\t_\t_
7\tstopped\tstop\tVERB\t_\tTense=Past|VerbForm=Fin\t2\tconj\t_\tSpaceAfter=No
8\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""


def long_word_rule(ctx: DocContext):
    """A rule is any callable taking a DocContext and returning
    (captured_refs, raw_count); None lets the engine count the refs."""
    refs = [
        (si, ti)
        for si, sentence in enumerate(ctx.doc.sentences)
        for ti, token in enumerate(sentence.tokens)
        if not token.is_punct and len(token.form) >= 6
    ]
    return refs, None


def main() -> None:
    plural_nouns = Metric(
        MetricDescriptor(
            id="X_PLURAL_NOUN",
            category="custom",
            language="en",
            description="plural nouns per token",
        ),
        token_pattern(TokenTest(upos=frozenset({"NOUN"}),
                                feats=(("Number", "Plur"),))),
    )
    long_words = Metric(
        MetricDescriptor(
            id="X_LONG_WORD",
            category="custom",
            language="en",
            description="words of six or more characters per token",
        ),
        long_word_rule,
    )

    # A registry is fixed when it is built: start a new one from the stock
    # part-of-speech slice and the new rules.
    registry = Registry([*registry_for("en", categories=("pos",)), plural_nouns, long_words])

    document = parse_conllu(DOCUMENT, doc_id="demo")
    vector = evaluate_all(registry, document)

    print(f"{len(registry)} metrics evaluated over "
          f"{document.token_count} tokens\n")
    for result in vector.results:
        if result.value > 0:
            print(f"  {result.metric_id:<16} {result.value:.3f}")

    custom = {r.metric_id: r for r in vector.results}
    for metric_id in ("X_PLURAL_NOUN", "X_LONG_WORD"):
        forms = [document.sentences[si].tokens[ti].form
                 for si, ti in custom[metric_id].captured]
        print(f"\n{metric_id} captured {forms}")


if __name__ == "__main__":
    main()
