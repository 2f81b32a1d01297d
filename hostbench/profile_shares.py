"""Turn one cProfile run of a driver call into per-module shares and phases.

No source change is needed: module = the ``repro/<module>/`` directory of a
function's file.  Self time of everything else (built-ins, NumPy, the
standard library) is charged to whoever called it, through the profile's
caller table, so ``heappush`` counts for ``sim`` and a NumPy ufunc called
from an MRA body counts for ``apps``.  Shares sum to 1.  They are shares and
not seconds because the profiler taxes small calls most.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from typing import Any, Callable, Dict, Tuple

MODULES = ("sim", "core", "runtime", "comm", "serialization", "linalg", "apps",
           "telemetry", "bench_baselines", "other")
# directory under repro/ -> module; any other directory counts as "other"
_MODULE_OF_DIR = {m: m for m in MODULES if m not in ("bench_baselines", "other")}
_MODULE_OF_DIR.update(bench="bench_baselines", baselines="bench_baselines")
# Greedy prefix: the *last* ``repro/<dir>/`` of the path, so a checkout that
# itself lives under a directory called ``repro`` still resolves.
_REPRO_DIR = re.compile(r".*[/\\]repro[/\\]([a-z_]+)[/\\]")

# Public phase functions whose cumulative time becomes a child span of
# ``driver``: (file-path fragment, function-name pattern).
PHASES = {
    "build": ("/repro/apps/", re.compile(r"build_\w+_graph")),
    "executable": ("/repro/core/graph.py", re.compile(r"executable")),
    "invoke": ("/repro/core/graph.py", re.compile(r"invoke")),
    "fence": ("/repro/core/graph.py", re.compile(r"fence")),
}

Func = Tuple[str, int, str]


def module_of(func: Func) -> str:
    """The repro module that owns ``func``, or '' for foreign code."""
    match = _REPRO_DIR.match(func[0])
    if match is None:
        return ""
    return _MODULE_OF_DIR.get(match.group(1), "other")


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, pstats.Stats]:
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, pstats.Stats(profiler)


def shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per module as a fraction of all self time."""
    table = stats.stats  # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func) -> Dict[str, float]:
        """How one second of ``func``'s self time splits over modules."""
        own = module_of(func)
        if own:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        # Provisional answer: cuts call cycles among foreign functions and
        # is what a profile root (no callers) keeps.
        memo[func] = {"other": 1.0}
        callers = table[func][4] if func in table else {}
        total = sum(v[2] for v in callers.values())
        if total > 0.0:
            split: Dict[str, float] = {}
            for caller, v in callers.items():
                for module, part in owners(caller).items():
                    split[module] = split.get(module, 0.0) + part * v[2] / total
            memo[func] = split
        return memo[func]

    seconds = dict.fromkeys(MODULES, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for module, part in owners(func).items():
            seconds[module] += tt * part
    total = sum(seconds.values())
    return {m: (s / total if total > 0 else 0.0) for m, s in seconds.items()}


def phase_seconds(stats: pstats.Stats) -> Dict[str, float]:
    """Cumulative profiled seconds inside each public phase function."""
    out = dict.fromkeys(PHASES, 0.0)
    for (path, _line, name), (_cc, _nc, _tt, ct, _callers) in stats.stats.items():
        for phase, (fragment, pattern) in PHASES.items():
            if fragment in path.replace("\\", "/") and pattern.fullmatch(name):
                out[phase] += ct
    return out
