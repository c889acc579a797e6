"""Corpus benchmark for stylovec.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-long-j1 --seed 1 --seconds 25 --trace 0

The seed fixes the generated corpus (see ``corpus.py``). With
``--trace 0`` every round launches one ``python -m stylovec.cli
analyze`` process on the corpus, as a user would, and the run reports
the end-to-end metrics: throughput from launch to exit, set-up time of
a fresh interpreter and peak resident memory. With ``--trace 1`` the
run walks the corpus through each layer's public functions and reports
per-layer busy times and counts (``layers.py``). Outputs are checked by
``checker.py`` in both modes. ``--workload all`` runs every workload in
turn. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / "perfbench" / "work"
# A round is one analyze process; at least this many are timed, whatever --seconds says.
MIN_ROUNDS = 3
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 7


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # Installed packages run from cached bytecode; so do the measured processes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(cmd: list[str]) -> tuple[float, int, float, str]:
    """Run one process to its exit: (wall s, exit code, peak RSS MB, stderr).

    The peak RSS is the rusage of the child, which covers its largest
    process, workers included.
    """
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, stderr.decode("utf-8", "replace")


def setup_command(languages) -> list[str]:
    code = "import stylovec.cli\nfrom stylovec.packs import registry_for\n"
    code += "".join(f"registry_for({lang!r})\n" for lang in languages)
    return [sys.executable, "-c", code]


def analyze_command(workload, corpus_dir: Path, out_dir: Path) -> list[str]:
    out = out_dir / ("vectors.json" if workload.format == "json" else "vectors.csv")
    cmd = [sys.executable, "-m", "stylovec.cli", "analyze", "--input", str(corpus_dir),
           "--out", str(out), "--jobs", str(workload.jobs), "--format", workload.format]
    if workload.debug:
        cmd += ["--debug-out", str(out_dir / "debug"), "--report-json", str(out_dir / "report.json")]
    return cmd


def timed(workload, docs, corpus_dir: Path, work: Path, seconds: float) -> dict:
    """Untraced rounds of ``stylovec analyze`` for ``seconds``; medians per metric."""
    import checker

    setup_cmd = setup_command(workload.languages)
    setup = []
    for _ in range(SETUP_SAMPLES + 1):  # the first one also byte-compiles a fresh checkout
        wall, code, _, stderr = launch(setup_cmd)
        if code != 0:
            raise checker.Mismatch(f"set-up process exited with {code}: {stderr.strip()}")
        setup.append(wall)
    setup = setup[1:]

    tokens = sum(d.token_count for d in docs)
    rounds, reference = [], None
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS + 1 or time.perf_counter() - started < seconds:
        out_dir = work / f"round{len(rounds)}"
        out_dir.mkdir()
        wall, code, rss, stderr = launch(analyze_command(workload, corpus_dir, out_dir))
        summary = checker.parse_summary(stderr)
        if code != (1 if summary["failed"] else 0):
            raise checker.Mismatch(f"analyze exited with {code}: {stderr.strip()}")
        checker.check_report(summary, docs, summary["failed_ids"])
        if reference is None:
            checker.check_outputs(out_dir, docs, workload.format, workload.debug, summary["failed_ids"])
            reference = (checker.digest(out_dir), summary)
        elif (checker.digest(out_dir), summary) != reference:
            raise checker.Mismatch(f"round {len(rounds)} output differs from round 0")
        shutil.rmtree(out_dir)
        rounds.append((wall, rss, summary["failed"]))

    # Round 0 warms the page cache and is checked in full; it is not timed.
    walls = [r[0] for r in rounds[1:]]
    return {
        "correct": True,
        "attempted": len(docs) * len(rounds),
        "failed": sum(r[2] for r in rounds),
        "metrics": {
            "tokens_per_s": {"value": statistics.median(tokens / w for w in walls), "unit": "tokens/s"},
            "docs_per_s": {"value": statistics.median(len(docs) / w for w in walls), "unit": "docs/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r[1] for r in rounds[1:]), "unit": "MB"},
        },
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import checker
    import corpus

    work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        docs = corpus.generate(workload, seed, FIXTURES)
        corpus.write(docs, work / "corpus")
        try:
            if trace:
                import layers
                return layers.run(workload, docs, work / "corpus", work, seconds)
            return timed(workload, docs, work / "corpus", work, seconds)
        except checker.Mismatch as exc:
            print(f"perfbench: {workload.name}: output check failed: {exc}", file=sys.stderr)
            return {"correct": False, "attempted": len(docs), "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stylovec" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: {SRC / 'stylovec'} or {FIXTURES} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
