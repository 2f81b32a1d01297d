"""Dynamic happens-before race detector over the telemetry event stream.

The simulated ranks share one host address space; the ranks they model
do not.  A buffer one rank can reach by reference on another is
therefore a real hazard that the simulator alone would hide, and this
module reports what *did* alias or race in a recorded execution.  It
runs at a completed :meth:`~repro.core.graph.Executable.fence` whenever
the sanitizer is armed (``strict``/``sanitize``) and telemetry is
attached, or offline over a JSONL trace (``python -m repro.analysis
--trace run.jsonl``).  It replays the executed dependency DAG -- task
spans (``cat="task"``), dependency instants (``cat="dep"``) and
zero-copy alias instants (``cat="alias"``) -- and builds per-rank vector
clocks:

- every executed task instance gets an index in its rank's program order
  (the one event loop runs each task body to completion, so same-rank
  spans are ordered);
- dependency instants add cross-rank edges (producer span -> consumer
  span) exactly as :func:`repro.telemetry.analyze.critical_path` sees
  them;
- a task's clock is the component-wise max of its predecessors' clocks
  plus its own program-order index.

``HB(a, b)`` then holds iff ``vc[b][rank(a)] >= index(a)`` -- the
standard vector-clock happens-before test.  Accesses to one data buffer
are identified by the *data token* the runtime stamps into dep instants
and task-span ``args["data"]`` lists (see
:meth:`repro.telemetry.events.Telemetry.data_token`; tokens are per-run
stable, so a recorded JSONL trace replays identically).  A send writes
the buffer on the producer; consumer-side accesses are taken from task
spans (``args["data"]`` lists the tokens of the objects a task actually
received) and zero-copy alias instants (a zero-copy ``move`` delivery
transfers ownership and counts as a write) -- never from a dep
instant's destination, because a delivery may be a serialized or cloned
copy carrying a fresh token.

Rules (registered in :mod:`repro.analysis.rules`):

- **RACE001** -- a write and a read of one buffer on two ranks with no
  happens-before edge in either direction.
- **RACE002** -- two unordered writes of one buffer on two ranks.
- **RACE003** -- one buffer observed live on two ranks at all (task-span
  inputs or zero-copy aliases); disjoint address spaces make this
  impossible on a distributed-memory machine, ordered or not.
- **RACE004** -- a sanitizer-visible cref mutation (``SAN003`` instant
  carrying a ``sharer=`` task label) at a timestamp strictly after the
  sharing task's span ended: someone other than the owning task wrote
  the buffer.

Findings are deduplicated and stably ordered, so two recordings of the
same run compare equal.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Dict,
    Iterable,
    List,
    Set,
    Tuple,
    Union,
)

from repro.analysis.rules import Finding, get_rule
from repro.telemetry.analyze import (
    TaskNode,
    dep_edges,
    program_order_edges,
    task_nodes,
)
from repro.telemetry.events import EventBus, Telemetry


def _bus_of(source: Union[Telemetry, EventBus]) -> EventBus:
    return source.bus if isinstance(source, Telemetry) else source


class HappensBefore:
    """Vector-clock happens-before relation over executed task spans."""

    def __init__(self, nodes: Dict[str, TaskNode],
                 edges: Iterable[Tuple[str, str]]) -> None:
        self.nodes = nodes
        # Program-order index of each task within its rank (1-based).
        self.rank_index: Dict[str, Tuple[int, int]] = {}
        by_rank: Dict[int, List[TaskNode]] = defaultdict(list)
        for node in nodes.values():
            by_rank[node.rank].append(node)
        for rank, chain in by_rank.items():
            chain.sort(key=lambda n: (n.start, n.end, n.label))
            for i, node in enumerate(chain):
                self.rank_index[node.label] = (rank, i + 1)

        preds: Dict[str, List[str]] = defaultdict(list)
        for src, dst in edges:
            if src in nodes and dst in nodes and src != dst:
                # Defensive, as in critical_path: a real dependency's
                # producer starts no later than its consumer.
                if nodes[src].start <= nodes[dst].start:
                    preds[dst].append(src)

        # Start order is a topological order (producers start first).
        order = sorted(nodes.values(), key=lambda n: (n.start, n.end, n.label))
        self.vc: Dict[str, Dict[int, int]] = {}
        for node in order:
            clock: Dict[int, int] = {}
            for p in preds.get(node.label, ()):
                for rank, c in self.vc.get(p, {}).items():
                    if c > clock.get(rank, 0):
                        clock[rank] = c
            rank, idx = self.rank_index[node.label]
            if idx > clock.get(rank, 0):
                clock[rank] = idx
            self.vc[node.label] = clock

    def hb(self, a: str, b: str) -> bool:
        """True iff span ``a`` happens-before span ``b`` (or a == b)."""
        if a == b:
            return True
        rank, idx = self.rank_index[a]
        return self.vc.get(b, {}).get(rank, 0) >= idx

    def concurrent(self, a: str, b: str) -> bool:
        return not self.hb(a, b) and not self.hb(b, a)


def _collect_accesses(
    bus: EventBus, nodes: Dict[str, TaskNode]
) -> Tuple[Dict[int, Set[str]], Dict[int, Set[str]], Dict[int, Set[int]]]:
    """(writes, reads, observed ranks) per data token.

    Writes: the producer side of every tokenized dep instant (the sender
    owns the buffer it sends).  Reads: every task span whose
    ``args["data"]`` lists the token, plus zero-copy alias deliveries
    (an alias delivery in ``move`` mode transfers ownership and counts
    as a write).  The *destination* of a dep instant is deliberately NOT
    an access: the token names the sender's object, and a delivery may
    hand the consumer a serialized or cloned copy -- a fresh buffer with
    a fresh token.  Only the consumer's own span data and alias instants
    prove the original object was touched on the consumer side; without
    that distinction every broadcast tree would report its sibling
    branches as cross-rank races.  Observed ranks follow the same rule:
    span inputs and aliases only, never sends.
    """
    writes: Dict[int, Set[str]] = defaultdict(set)
    reads: Dict[int, Set[str]] = defaultdict(set)
    ranks: Dict[int, Set[int]] = defaultdict(set)

    for ev in bus.instants(cat="dep"):
        tok = ev.args.get("obj")
        if not isinstance(tok, int):
            continue
        src = ev.args.get("src")
        if src in nodes:
            writes[tok].add(src)

    for ev in bus.spans(cat="task"):
        data = ev.args.get("data")
        if not data:
            continue
        template = ev.args.get("template", ev.name)
        label = f"{template}[{ev.args.get('key', 'None')}]"
        for tok in data:
            if isinstance(tok, int):
                if label in nodes:
                    reads[tok].add(label)
                ranks[tok].add(ev.rank)

    for ev in bus.instants(cat="alias"):
        tok = ev.args.get("obj")
        if not isinstance(tok, int):
            continue
        ranks[tok].add(ev.rank)
        dst = ev.args.get("dst")
        if dst in nodes:
            mode = ev.args.get("mode", "value")
            (writes if mode == "move" else reads)[tok].add(dst)

    return writes, reads, ranks


def detect_races(
    source: Union[Telemetry, EventBus],
    ignore: Iterable[str] = (),
) -> List[Finding]:
    """Run the happens-before race detector over one recorded execution.

    ``source`` may be a live :class:`Telemetry`, its bus, or a bus
    re-ingested from JSONL (``repro.telemetry.export.read_jsonl``).
    Only cross-rank pairs are reported: the event loop runs each task
    body to completion, so same-rank accesses are always program-ordered.
    """
    ignored = set(ignore)
    bus = _bus_of(source)
    nodes = task_nodes(bus)
    if not nodes:
        return []
    edges = dep_edges(bus) + program_order_edges(nodes)
    hb = HappensBefore(nodes, edges)
    writes, reads, observed = _collect_accesses(bus, nodes)

    found: Set[Tuple[str, str]] = set()  # (rule id, dedup key)
    out: List[Finding] = []

    def emit(rule_id: str, key: str, location: str, message: str) -> None:
        if rule_id in ignored or (rule_id, key) in found:
            return
        found.add((rule_id, key))
        out.append(Finding(get_rule(rule_id), message, location=location))

    def cross_rank(a: str, b: str) -> bool:
        return nodes[a].rank != nodes[b].rank

    for tok in sorted(set(writes) | set(reads)):
        ws = sorted(writes.get(tok, ()))
        rs = sorted(reads.get(tok, ()))
        for i, w1 in enumerate(ws):
            for w2 in ws[i + 1:]:
                if cross_rank(w1, w2) and hb.concurrent(w1, w2):
                    a, b = sorted((w1, w2))
                    emit(
                        "RACE002", f"{tok}:{a}|{b}", f"data#{tok}",
                        f"buffer data#{tok} written by {a} (rank "
                        f"{nodes[a].rank}) and {b} (rank {nodes[b].rank}) "
                        "with no happens-before edge between the writes",
                    )
        for w in ws:
            for r in rs:
                if r == w:
                    continue
                if cross_rank(w, r) and hb.concurrent(w, r):
                    emit(
                        "RACE001", f"{tok}:{w}|{r}", f"data#{tok}",
                        f"buffer data#{tok} written by {w} (rank "
                        f"{nodes[w].rank}) and read by {r} (rank "
                        f"{nodes[r].rank}) with no happens-before edge "
                        "between the accesses",
                    )

    for tok in sorted(observed):
        rks = sorted(observed[tok])
        if len(rks) >= 2:
            emit(
                "RACE003", str(tok), f"data#{tok}",
                f"buffer data#{tok} observed live on ranks {rks}; "
                "the modelled ranks have disjoint address spaces, so "
                "this aliasing must become per-rank copies or messages",
            )

    for ev in bus.instants(cat="san"):
        if ev.name != "SAN003":
            continue
        sharer = ev.args.get("sharer")
        node = nodes.get(sharer) if sharer else None
        # _record_task stamps the span before the body runs, so a
        # sender's own post-send mutation lands exactly at span.end;
        # strictly-after means a *different* task (or callback) wrote it.
        if node is not None and ev.ts > node.end:
            emit(
                "RACE004", f"{sharer}:{ev.ts}", ev.args.get("location", ""),
                f"cref-shared data owned by {sharer} (span ended at "
                f"{node.end:.6g}) was mutated at t={ev.ts:.6g}, outside "
                "the owning task's execution span",
            )

    out.sort(key=lambda f: (f.rule.id, f.location, f.message))
    return out
