"""Tests for the report's Gantt SVG edge cases and the bench CLI."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.telemetry.events import EventBus
from repro.telemetry.report_html import gantt_svg


def _task(bus, template, key, rank, tid, start, end):
    bus.complete(template, rank, tid, start, end, cat="task",
                 args={"key": repr(key), "template": template})


def test_gantt_rect_count_capped():
    bus = EventBus(nranks=2, capacity=None)
    _task(bus, "A", 0, 0, 0, 0.0, 1.0)
    _task(bus, "A", 1, 0, 0, 1.0, 2.0)
    _task(bus, "B", 0, 0, 1, 0.0, 1.0)
    _task(bus, "B", 1, 1, 0, 0.0, 2.0)
    svg = gantt_svg(bus, max_lanes=1)
    assert "r0 w0" in svg
    assert "r0 w1" not in svg and "r1 w0" not in svg
    assert svg.count("<rect") == 2  # only the first lane's two tasks


def test_gantt_empty_trace():
    svg = gantt_svg(EventBus(capacity=None))
    assert svg.startswith("<svg") and "no spans recorded" in svg


def test_gantt_escapes_keys():
    bus = EventBus(capacity=None)
    _task(bus, "<evil>", "<key&>", 0, 0, 0.0, 1.0)
    svg = gantt_svg(bus)
    assert "<evil>" not in svg and "<key&>" not in svg
    assert "&lt;evil&gt;" in svg and "&lt;key&amp;&gt;" in svg


def test_cli_table1(capsys):
    assert bench_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "hawk" in out and "seawulf" in out


def test_cli_figure_with_max_nodes(capsys):
    assert bench_main(["fig13b", "--max-nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 13b" in out
    assert "ttg-parsec" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        bench_main(["fig99"])
