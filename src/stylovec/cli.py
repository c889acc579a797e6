"""Command-line surface: ``analyze`` and ``list-metrics`` subcommands.

Exit codes, all set in ``main``: 0 full success; 1 a failed document, a ``--strict``
abort (``StrictAbort``) or an ``OSError``; 2 a bad argument or configuration
(``RunnerError``, ``PackError``, ``ParseError``, ``OutputError``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .conllu import ParseError
from .model import LANGUAGES
from .output import OutputError, write_vectors_csv, write_vectors_json
from .packs import PackError, registry_for, split_values
from .runner import RunnerError, StrictAbort, analyze_corpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylovec",
        description="Stylometric feature vectors from CoNLL-U annotated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("analyze", help="evaluate a corpus and write vectors")
    run.add_argument("--input", required=True, help="corpus directory or single .conllu file")
    run.add_argument("--lang", choices=LANGUAGES,
                     help="language pack; omit only when every file carries a language comment")
    run.add_argument("--out", required=True, help="vectors output file")
    run.add_argument("--debug-out", help="directory for per-document debug capture CSVs")
    run.add_argument("--categories", type=split_values, default=None,
                     help="comma-separated category filter")
    run.add_argument("--metrics", type=split_values, default=None,
                     help="comma-separated metric id filter")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel worker processes (at most one per file)")
    run.add_argument("--strict", action="store_true", help="abort on the first file error")
    run.add_argument("--report-json", help="also write the run report as JSON")
    run.set_defaults(func=_cmd_analyze)

    ls = sub.add_parser("list-metrics", help="print the metric catalogue for a language")
    ls.add_argument("--lang", required=True, choices=LANGUAGES)
    ls.add_argument("--categories", type=split_values, default=None)
    ls.add_argument("--format", choices=("text", "json"), default="text")
    ls.set_defaults(func=_cmd_list_metrics)
    return parser


def _out_path(base: str, language: str, multi: bool) -> Path:
    path = Path(base)
    if not multi:
        return path
    return path.with_name(f"{path.stem}.{language}{path.suffix or '.csv'}")


def _say(text: str) -> None:
    """Print to stderr; what its encoding cannot write is escaped, as Python's own stderr does."""
    encoding = sys.stderr.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = analyze_corpus(args.input, language=args.lang, categories=args.categories,
                            metric_ids=args.metrics, jobs=args.jobs, strict=args.strict,
                            debug_dir=args.debug_out)
    report = result.report
    languages = result.languages
    multi = len(languages) > 1
    if result.vectors:
        if args.format == "csv":
            for lang in languages:
                write_vectors_csv(result.vectors[lang], _out_path(args.out, lang, multi))
        else:
            pairs = [(lang, vec) for lang in languages for vec in result.vectors[lang]]
            write_vectors_json(pairs, args.out)
    _say(report.summary())
    if args.report_json:
        # a path that is not UTF-8 keeps its undecodable bytes as \udcXX escapes
        Path(args.report_json).write_text(
            json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8", errors="backslashreplace",
        )
    return 1 if report.failed else 0


def _cmd_list_metrics(args: argparse.Namespace) -> int:
    registry = registry_for(args.lang, categories=args.categories)
    if args.format == "json":
        payload = [
            {
                "id": m.descriptor.id,
                "category": m.descriptor.category,
                "language": m.descriptor.language,
                "name_en": m.descriptor.name_en,
                "description": m.descriptor.description,
            }
            for m in registry
        ]
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for m in registry:
            d = m.descriptor
            print(f"{d.id}\t{d.category}\t{d.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING,
        format="stylovec: %(levelname)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StrictAbort as exc:
        error, code = exc, 1
    except (RunnerError, PackError, ParseError, OutputError) as exc:
        error, code = exc, 2
    except OSError as exc:
        error, code = exc, 1
    _say(f"stylovec: error: {error}")
    return code


if __name__ == "__main__":
    sys.exit(main())
