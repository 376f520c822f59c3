"""Tiny-size self-check of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` lists exactly the metrics ``metrics.py`` defines.
2. Every workload, shrunk to a tiny scenario and a one-second window,
   emits every metric of its trace mode with the right unit and passes
   its output checks.
3. Every output check rejects a deliberately altered report.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {"n_concepts": 12, "docs_per_concept": 4}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, defined in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in spec[key]}
        expect(listed == defined, f"BENCHMARK.json {key} matches metrics.py")


def check_workloads_emit() -> None:
    workloads.CLI_SIZE.update(TINY)
    workloads.BATCH_SIZE.update(TINY)
    workloads.SERVED_SIZE.update(TINY)
    workloads.SERVED_HELD_OUT = 8
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", name, "--seed", "3", "--seconds", "1"]
                    + ["--trace", str(trace)]
                )
            lines = out.getvalue().splitlines()
            line = json.loads(lines[-1])
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            label = f"{name} trace={trace}"
            expect(code == 0 and line["correct"], f"{label}: checks pass")
            expect(emitted == wanted, f"{label}: every metric emitted with its unit")
            for text in lines:
                if text.startswith("CHECK FAILED"):
                    print("     " + text)


def _tiny_reports():
    """A base report, real delta documents, and the from-scratch reference."""
    from repro.corpus.corpus import Corpus
    from repro.scenarios import make_enrichment_scenario
    from repro.workflow.pipeline import OntologyEnricher
    from repro.workflow.streaming import StreamingEnricher

    scenario = make_enrichment_scenario(seed=3, **TINY)
    documents = list(scenario.corpus)
    base_docs, streamed = documents[:-2], documents[-2:]
    streamer = StreamingEnricher(scenario.ontology, Corpus(base_docs))
    base = streamer.baseline().to_dict()
    jobs = []
    for seq, document in enumerate(streamed, start=1):
        diff = streamer.add_documents([document]).to_dict()
        diff["seq"] = seq
        jobs.append({"job": f"job-{seq}", "status": "done", "report": diff})
    reference = OntologyEnricher(scenario.ontology).enrich(Corpus(documents)).to_dict()
    return base, jobs, reference


def _alter(report: dict) -> dict:
    altered = copy.deepcopy(report)
    altered["terms"][0]["extraction_score"] += 1.0
    return altered


def check_checks_reject() -> None:
    base, jobs, reference = _tiny_reports()
    cli, reports = checks.check_cli_outputs, checks.check_reports
    deltas, recommend = checks.check_deltas, checks.check_recommend

    table = "term | score\nfoo  | 1.0\n"
    other = table.replace("1.0", "1.5")
    expect(not cli([table, table], table), "cli check accepts identical output")
    expect(bool(cli([table, other], table)), "cli check rejects a differing process")
    expect(bool(cli([other, other], table)), "cli check rejects a wrong table")
    expect(bool(cli([], table)), "cli check rejects an empty run")

    retimed = dict(reference, timings={"index": 123.0}, cache={"hits": 7})
    dropped = dict(reference, terms=reference["terms"][1:])
    expect(
        not reports([reference, retimed], reference, "batch"),
        "report check ignores timings and cache",
    )
    expect(
        bool(reports([reference, _alter(reference)], reference, "batch")),
        "report check rejects an altered report",
    )
    expect(bool(reports([dropped], reference, "batch")), "report check rejects a dropped term")

    expect(not deltas(jobs, base, reference), "delta check accepts real diffs")
    rescored = copy.deepcopy(jobs)
    diff = rescored[-1]["report"]
    rows = diff["added"] + diff["rescored"]
    if rows:
        rows[0]["extraction_score"] += 1.0
    else:
        diff["term_order"] = diff["term_order"][1:]
    expect(bool(deltas(rescored, base, reference)), "delta check rejects an altered diff")
    failed = copy.deepcopy(jobs)
    failed[0]["status"] = "failed"
    expect(bool(deltas(failed, base, reference)), "delta check rejects a failed job")
    expect(bool(deltas(jobs[::-1], base, reference)), "delta check rejects reordered diffs")
    expect(
        bool(deltas(jobs, base, _alter(reference))),
        "delta check rejects a different reference",
    )

    ranking = {"ranking": [{"name": "bench"}]}
    expect(not recommend(200, ranking), "recommend check accepts a ranking")
    expect(bool(recommend(500, ranking)), "recommend check rejects HTTP 500")
    expect(bool(recommend(200, {"ranking": []})), "recommend check rejects no ranking")


def main() -> int:
    check_benchmark_json()
    check_checks_reject()
    check_workloads_emit()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
