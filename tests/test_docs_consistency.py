"""Documentation consistency: the docs must reference real artifacts."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_design_mentions_every_figure_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("test_*.py"):
        stem = bench.name
        # fig13 benches are referenced with ::test ids; others by filename
        assert stem in design or stem.replace(".py", "") in design, stem


def test_experiments_covers_every_paper_item():
    exp = (ROOT / "EXPERIMENTS.md").read_text()
    for item in ("Table I", "Fig 5", "Fig 6", "Fig 8", "Fig 9", "Fig 11",
                 "Fig 12", "Fig 13a/b", "Ablations"):
        assert item in exp, item


def test_readme_architecture_mentions_every_package():
    readme = (ROOT / "README.md").read_text()
    src = ROOT / "src" / "repro"
    for pkg in src.iterdir():
        if pkg.is_dir() and (pkg / "__init__.py").exists():
            assert f"repro.{pkg.name}" in readme, pkg.name


def _resolves(ref):
    """Whether ``repro.<ref>`` names a module, or an attribute of one."""
    parts = ref.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(["repro", *parts[:i]]))
        except ImportError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_docs_reference_existing_modules():
    """Every `repro.…` name in the guides, README and DESIGN must exist."""
    docs = [*sorted((ROOT / "docs").glob("*.md")),
            ROOT / "README.md", ROOT / "DESIGN.md"]
    refs = {ref for doc in docs
            for ref in re.findall(r"`repro\.([A-Za-z_][\w.]*)`", doc.read_text())}
    assert len(refs) > 20
    assert sorted(ref for ref in refs if not _resolves(ref)) == []


def test_analysis_doc_catalogs_every_rule():
    """docs/analysis.md has a table row for every registered rule, and
    names no rule id that is not registered."""
    from repro.analysis import all_rules

    doc = (ROOT / "docs" / "analysis.md").read_text()
    registered = {r.id for r in all_rules()}
    rows = set(re.findall(r"^\| ([A-Z]+\d{3}) \|", doc, re.MULTILINE))
    assert rows == registered
    mentioned = set(re.findall(r"\b(?:TTG|SAN|RACE|SHD)\d{3}\b", doc))
    assert mentioned <= registered, sorted(mentioned - registered)


def test_observability_doc_catalogs_every_recorded_event():
    """Every (event kind, category, arg names) the three golden telemetry
    cells record has a row in the event catalog of
    docs/observability.md, and every row is recorded by some cell."""
    from repro.telemetry import CounterEvent, InstantEvent
    from tests.test_telemetry_records import GOLDEN, _cell

    doc = (ROOT / "docs" / "observability.md").read_text()
    rows = {(kind, cat, tuple(re.findall(r"`(\w+)`", args)))
            for kind, cat, args in re.findall(
                r"^\| (span|instant|counter) \| `(\w+)` \| .+? \| (.+?) \|",
                doc, re.MULTILINE)}
    kinds = {CounterEvent: "counter", InstantEvent: "instant"}
    recorded = {(kinds.get(type(ev), "span"), ev.cat,
                 tuple(ev.values if type(ev) is CounterEvent else ev.args))
                for app in GOLDEN for ev in _cell(app).bus.events()}
    assert sorted(recorded - rows) == []
    assert sorted(rows - recorded) == []


def test_design_no_title_collision_note():
    design = (ROOT / "DESIGN.md").read_text()
    assert "no title collision" in design


def test_changelog_and_contributing_exist():
    assert (ROOT / "CHANGELOG.md").read_text().startswith("# Changelog")
    assert "pytest" in (ROOT / "CONTRIBUTING.md").read_text()


def test_changelog_removed_names_do_not_resolve():
    """Every `repro.…` name the CHANGELOG lists as removed is gone."""
    text = (ROOT / "CHANGELOG.md").read_text()
    section = text.split("## Removed since 0.1.0\n", 1)[1].split("\n## ", 1)[0]
    refs = re.findall(r"`repro\.([A-Za-z_][\w.]*)`", section)
    assert len(refs) > 10
    assert sorted(ref for ref in refs if _resolves(ref)) == []


def test_docs_name_only_existing_commands():
    """Every `python -m repro.<pkg>` in the docs and CI names a package
    with a ``__main__``; every long option after `python -m repro.bench`
    on the same line is one the bench parser accepts; and every
    `python -m repro.telemetry SUB` names a real subcommand, followed only
    by long options that subcommand accepts."""
    import argparse

    from repro.bench.__main__ import build_parser as bench_parser
    from repro.telemetry.cli import build_parser as telemetry_parser

    bench_options = set(bench_parser()._option_string_actions)
    telemetry_subs = next(
        a for a in telemetry_parser()._actions
        if isinstance(a, argparse._SubParsersAction)).choices
    files = [ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md")),
             ROOT / ".github" / "workflows" / "ci.yml"]
    commands, missing, unknown = 0, [], []
    for path in files:
        for line in path.read_text().splitlines():
            for m in re.finditer(r"python -m repro\.(\w+)", line):
                commands += 1
                pkg = m.group(1)
                if not (ROOT / "src" / "repro" / pkg / "__main__.py").exists():
                    missing.append(f"{path.name}: repro.{pkg}")
                tail = line[m.end():].split("python -m", 1)[0]
                if pkg == "bench":
                    accepted = bench_options
                elif pkg == "telemetry":
                    sub = re.match(r" ([\w-]+)", tail)
                    if sub is None:
                        continue  # the CLI named in prose, no subcommand
                    if sub.group(1) not in telemetry_subs:
                        unknown.append(f"{path.name}: telemetry {sub.group(1)}")
                        continue
                    accepted = set(
                        telemetry_subs[sub.group(1)]._option_string_actions)
                else:
                    continue
                unknown += [f"{path.name}: {pkg} {opt}"
                            for opt in re.findall(r"(?<![\w-])--[\w-]+", tail)
                            if opt not in accepted]
    assert commands > 20
    assert missing == []
    assert unknown == []
