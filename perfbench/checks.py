"""Output checks.  Each returns a list of failure messages (empty = pass).

The checks compare what the program produced under load with a
reference the benchmark computes itself through another public path:
an in-process run, a sequential run, or a from-scratch run over the
grown corpus.  ``selfcheck.py`` alters reports to prove each check
rejects a wrong one.
"""

from __future__ import annotations

#: Runtime measurements, not results: dropped before comparing reports.
RUNTIME_KEYS = ("timings", "cache")


def report_body(report: dict) -> dict:
    """A report document without its runtime measurements."""
    return {k: v for k, v in report.items() if k not in RUNTIME_KEYS}


def check_cli_outputs(outputs: list[str], reference: str) -> list[str]:
    """Every CLI stdout is identical and equals the in-process table."""
    errors = []
    if not outputs:
        errors.append("cli: no completed enrich process to check")
    for position, out in enumerate(outputs):
        if out != outputs[0]:
            errors.append(f"cli: stdout of process {position} differs from process 0")
        elif out != reference:
            errors.append(f"cli: stdout of process {position} differs from the in-process report")
    return errors


def check_reports(reports: list[dict], reference: dict, label: str) -> list[str]:
    """Every report equals ``reference`` once runtime keys are dropped."""
    want = report_body(reference)
    return [
        f"{label}: report {position} differs from the reference"
        for position, report in enumerate(reports)
        if report_body(report) != want
    ]


def compose_diffs(base: dict, diffs: list[dict]) -> tuple[dict, list[str]]:
    """Apply delta documents in order to ``base``; returns (report, errors).

    Mirrors ``ReportDiff.apply`` on the wire shape, and also checks that
    the diffs chain: each one starts at the fingerprint the previous one
    ended at, and their sequence numbers are consecutive.
    """
    errors: list[str] = []
    rows = {row["term"]: row for row in base["terms"]}
    current = dict(base)
    for position, diff in enumerate(diffs):
        if position and diff["base_fingerprint"] != diffs[position - 1]["fingerprint"]:
            errors.append(f"delta {diff.get('seq')}: breaks the fingerprint chain")
        if position and diff.get("seq") != diffs[position - 1].get("seq", 0) + 1:
            errors.append(f"delta {diff.get('seq')}: sequence number is not consecutive")
        for term in diff["dropped"]:
            if term not in rows:
                errors.append(f"delta {diff.get('seq')}: drops unknown term {term!r}")
        patched = {row["term"]: row for row in diff["added"] + diff["rescored"]}
        terms = []
        for term in diff["term_order"]:
            row = patched.get(term, rows.get(term))
            if row is None:
                errors.append(f"delta {diff.get('seq')}: carries over unknown term {term!r}")
                continue
            terms.append(row)
        rows = {row["term"]: row for row in terms}
        current = {
            "n_candidates": len(terms),
            "terms": terms,
            "detector_trained": diff["detector_trained"],
            "warnings": list(diff["warnings"]),
        }
    return current, errors


def check_deltas(
    jobs: list[dict], base: dict, reference: dict
) -> list[str]:
    """Every delta job ended ``done`` and the composed diffs equal ``reference``."""
    errors = [
        f"delta job {job.get('job')}: status {job.get('status')!r}"
        for job in jobs
        if job.get("status") != "done"
    ]
    diffs = [job["report"] for job in jobs if job.get("status") == "done"]
    composed, chain_errors = compose_diffs(base, diffs)
    errors.extend(chain_errors)
    if report_body(composed) != report_body(reference):
        errors.append("served: composed deltas differ from a from-scratch enrich")
    return errors


def check_recommend(status: int, document: dict | None) -> list[str]:
    """A ``/recommend`` answer is 200 with a non-empty ranking."""
    if status != 200:
        return [f"recommend: HTTP {status}"]
    if not document or not document.get("ranking"):
        return ["recommend: empty ranking"]
    return []
