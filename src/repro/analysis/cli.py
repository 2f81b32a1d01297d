"""``python -m repro.analysis`` -- lint the graphs a script constructs.

The CLI executes each given Python file (as ``__main__``, exactly like
running it), observes every :class:`~repro.core.graph.TaskGraph` and
:class:`~repro.core.graph.Executable` the script builds via the
construction-observer hook in :mod:`repro.core.graph`, lints them all,
and prints one rule-grouped report per file::

    python -m repro.analysis examples/quickstart.py
    python -m repro.analysis examples/*.py --strict

``--json PATH`` additionally writes the full machine-readable report
(the CI artifact).  Races are not a lint: the runtime sanitizer checks
them while a graph executes (``sanitize=True`` / ``strict=True``).

Exit-code contract
------------------
==  ============================================================
0   clean: no findings above info severity, none suppressed
1   hard findings: an unwaived error (or, under ``--strict``, an
    unwaived warning) survives, or a script failed to run
2   waived-only: every error/warning finding is suppressed by a
    waiver (template ``tt.lint_waive`` or file-scope comment) --
    the graph passes, but only by explicit acknowledgment
==  ============================================================

CI treats 2 as success for graphs with reviewed waivers; the distinct
code keeps "passes because it is clean" and "passes because someone
signed off" observable without parsing reports.  Suppression is
measured by double analysis: the effective run (waivers honored) is
diffed against a raw run (``honor_waivers=False``, file waivers
ignored).  Expired waivers (``tt.lint_waive(..., expires=...)`` past
its date) no longer suppress -- their findings fire hard again -- and
are called out in the summary.

File-scope waivers: a line ``# ttg-lint: disable=TTG005,TTG011`` anywhere
in the analyzed file suppresses those rules for every graph it builds
(template-level waivers use ``tt.lint_waive(...)`` in the code itself).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import traceback
from contextlib import redirect_stdout
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.analysis.lint import lint_graph
from repro.analysis.rules import Finding, SEVERITIES
from repro.core.graph import (
    add_construction_observer,
    remove_construction_observer,
)

#: Exit statuses (see module docstring).
EXIT_CLEAN = 0
EXIT_HARD = 1
EXIT_WAIVED = 2

_WAIVER_RE = re.compile(r"#\s*ttg-lint:\s*disable=([A-Z0-9, ]+)")


def parse_waivers(source: str) -> Tuple[str, ...]:
    """File-scope rule waivers declared in comments."""
    out: List[str] = []
    for m in _WAIVER_RE.finditer(source):
        out.extend(part.strip() for part in m.group(1).split(",") if part.strip())
    return tuple(out)


class FileReport:
    """Analysis results for one executed script."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.graphs: List[Any] = []
        self.nranks: Dict[int, int] = {}  # id(graph) -> bound cluster size
        self.findings: List[Finding] = []
        #: Findings a waiver suppressed (raw run minus effective run).
        self.suppressed: List[Finding] = []
        #: (template name, rule id) pairs whose waiver expiry has passed.
        self.expired: List[Tuple[str, str]] = []
        self.waived: Tuple[str, ...] = ()
        self.crash: Optional[str] = None
        self.script_output = ""

    def counts(self) -> Dict[str, int]:
        c = {s: 0 for s in SEVERITIES}
        for f in self.findings:
            c[f.rule.severity] += 1
        return c

    def failed(self, strict: bool = False) -> bool:
        if self.crash is not None:
            return True
        c = self.counts()
        return c["error"] > 0 or (strict and c["warning"] > 0)

    def exit_code(self, strict: bool = False) -> int:
        """This file's contribution to the CLI exit status."""
        if self.failed(strict=strict):
            return EXIT_HARD
        if any(f.rule.severity in ("error", "warning") for f in self.suppressed):
            return EXIT_WAIVED
        return EXIT_CLEAN


def _run_script(report: FileReport) -> None:
    """Execute ``report.path`` as ``__main__``, collecting every graph it
    constructs (and the cluster size each one is bound to)."""
    observed: List[Any] = []

    def observer(kind: str, obj: Any) -> None:
        if kind == "graph":
            observed.append(obj)
        elif kind == "executable":
            report.nranks[id(obj.graph)] = obj.nranks

    try:
        with open(report.path) as fh:
            source = fh.read()
    except OSError as e:
        report.crash = f"cannot read {report.path}: {e}"
        return
    report.waived = parse_waivers(source)

    globalns = {
        "__name__": "__main__", "__file__": report.path,
        "__builtins__": __builtins__,
    }
    add_construction_observer(observer)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            exec(compile(source, report.path, "exec"), globalns)
    except SystemExit as e:
        if e.code not in (None, 0):
            report.crash = f"script exited with status {e.code}"
    except BaseException:
        report.crash = traceback.format_exc(limit=8)
    finally:
        remove_construction_observer(observer)
        report.script_output = buf.getvalue()

    report.graphs = observed


def suppressed_findings(
    effective: Sequence[Finding], raw: Sequence[Finding]
) -> List[Finding]:
    """Findings of a raw (waiver-blind) run absent from the effective
    run -- what the waivers suppressed.  Multiset difference keyed by
    ``(rule id, location, message)``."""
    remaining: Dict[Tuple[str, str, str], int] = {}
    for f in effective:
        key = (f.rule.id, f.location, f.message)
        remaining[key] = remaining.get(key, 0) + 1
    out: List[Finding] = []
    for f in raw:
        key = (f.rule.id, f.location, f.message)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            out.append(f)
    return out


def lint_file(path: str) -> FileReport:
    """Execute ``path`` and lint every graph it constructs, measuring
    waiver suppression via a raw second run."""
    report = FileReport(path)
    _run_script(report)
    if report.crash is not None and not report.graphs:
        return report

    effective: List[Finding] = []
    raw: List[Finding] = []
    for g in report.graphs:
        nranks = report.nranks.get(id(g))
        effective.extend(lint_graph(g, nranks=nranks, ignore=report.waived))
        raw.extend(lint_graph(g, nranks=nranks, honor_waivers=False))
        for tt in g.tts:
            report.expired.extend((tt.name, rid) for rid in tt.expired_waivers())
    report.findings = effective
    report.suppressed = suppressed_findings(effective, raw)
    return report


# ------------------------------------------------------------------ reporting


def _rule_groups(findings: Sequence[Finding]) -> List[str]:
    """One block per rule: header, every instance, the fix hint."""
    by_rule: Dict[str, List[Finding]] = {}
    for f in findings:
        by_rule.setdefault(f.rule.id, []).append(f)
    lines: List[str] = []
    for rule_id in sorted(by_rule):
        fs = by_rule[rule_id]
        rule = fs[0].rule
        lines.append(f"  {rule.id} {rule.title} [{rule.severity}] x{len(fs)}")
        lines.extend(f"    - {f.location}: {f.message}" for f in fs)
        lines.append(f"    hint: {rule.hint}")
    return lines


def format_report(report: FileReport, verbose: bool = False,
                  strict: bool = False) -> str:
    """Human-readable, rule-grouped report for one file; the verdict line
    agrees with :meth:`FileReport.exit_code` under the same ``strict``."""
    lines = [f"== repro.analysis == {report.path}"]
    if report.crash is not None:
        lines.append("  script failed to run:")
        lines.extend("    " + ln for ln in report.crash.rstrip().splitlines())
        return "\n".join(lines)

    bound = [
        f"{g.name}(nranks={report.nranks[id(g)]})"
        for g in report.graphs
        if id(g) in report.nranks
    ]
    unbound = [g.name for g in report.graphs if id(g) not in report.nranks]
    desc = ", ".join(bound + unbound) or "none"
    lines.append(f"  graphs: {len(report.graphs)} ({desc})")
    if report.waived:
        lines.append(f"  waived: {', '.join(report.waived)}")
    lines.extend(_rule_groups(report.findings))

    if report.suppressed:
        per_rule: Dict[str, int] = {}
        for f in report.suppressed:
            per_rule[f.rule.id] = per_rule.get(f.rule.id, 0) + 1
        detail = ", ".join(f"{rid} x{n}" for rid, n in sorted(per_rule.items()))
        lines.append(
            f"  suppressed by waivers: {len(report.suppressed)} "
            f"finding(s) ({detail})"
        )
    for tt_name, rid in sorted(set(report.expired)):
        lines.append(
            f"  EXPIRED waiver: {tt_name}.lint_waive({rid!r}) is past its "
            "expires= date; its findings fire hard again"
        )

    c = report.counts()
    verdict = {EXIT_HARD: "FAIL", EXIT_WAIVED: "ok (waived)",
               EXIT_CLEAN: "ok"}[report.exit_code(strict=strict)]
    lines.append(
        f"  {verdict}: {c['error']} error(s), {c['warning']} warning(s), "
        f"{c['info']} info"
    )
    if verbose and report.script_output:
        lines.append("  -- script output " + "-" * 40)
        lines.extend("  | " + ln for ln in report.script_output.rstrip().splitlines())
    return "\n".join(lines)


def _finding_json(f: Finding) -> Dict[str, Any]:
    return {"rule": f.rule.id, "severity": f.rule.severity,
            "location": f.location, "message": f.message}


def _report_json(report: FileReport, strict: bool) -> Dict[str, Any]:
    return {
        "path": report.path,
        "graphs": [g.name for g in report.graphs],
        "crash": report.crash,
        "findings": [_finding_json(f) for f in report.findings],
        "suppressed": [_finding_json(f) for f in report.suppressed],
        "expired_waivers": [
            {"template": tt, "rule": rid}
            for tt, rid in sorted(set(report.expired))
        ],
        "exit_code": report.exit_code(strict=strict),
    }


def _combine(codes: Sequence[int]) -> int:
    """Overall exit status: hard failure beats waived-only beats clean."""
    if EXIT_HARD in codes:
        return EXIT_HARD
    if EXIT_WAIVED in codes:
        return EXIT_WAIVED
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    out = stream or sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint the task graphs built by Python scripts "
                    "(exit 0 clean / 1 hard findings / 2 waived-only).",
    )
    parser.add_argument("files", nargs="+", help="scripts that construct TTGs")
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the full machine-readable report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 1) on warning-severity findings",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="include each script's own stdout in the report",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))

    codes: List[int] = []
    payload: Dict[str, Any] = {"schema": "repro.analysis/report-v1",
                               "files": []}
    for path in args.files:
        report = lint_file(path)
        print(format_report(report, verbose=args.verbose, strict=args.strict)
              + "\n", file=out)
        codes.append(report.exit_code(strict=args.strict))
        payload["files"].append(_report_json(report, args.strict))

    code = _combine(codes)
    payload["exit_code"] = code
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    return code
