"""Whole-stack property test: random layered DAGs executed as TTGs.

Hypothesis generates a random layered DAG (random widths, random edges
between consecutive layers, random integer weights); we express it as a
TTG (one template per layer, streaming-reducer inputs with per-key dynamic
sizes) and check the distributed execution computes exactly the same node
values as a sequential topological evaluation, on both backends, for any
rank count.

A second property pins the *matching* semantics (paper II: a task fires
once every input terminal is satisfied, on the rank its keymap names):
random template sets mixing every kind of input terminal, fed through
every sending entry point, must fire exactly the instances a
definition-level oracle in this file says they fire.
"""

import warnings
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import core as ttg
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import Cluster, HAWK
from repro.sim.sharded import ENGINE_KINDS

_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def layered_dags(draw):
    nlayers = draw(st.integers(min_value=2, max_value=4))
    widths = [draw(st.integers(min_value=1, max_value=4)) for _ in range(nlayers)]
    edges = []  # ((layer, i) -> (layer+1, j), weight)
    for l in range(nlayers - 1):
        for j in range(widths[l + 1]):
            # every node needs at least one predecessor
            preds = draw(
                st.lists(
                    st.integers(min_value=0, max_value=widths[l] - 1),
                    min_size=1,
                    max_size=widths[l],
                    unique=True,
                )
            )
            for i in preds:
                w = draw(st.integers(min_value=-5, max_value=5))
                edges.append(((l, i), (l + 1, j), w))
    seeds = [draw(st.integers(min_value=-10, max_value=10)) for _ in range(widths[0])]
    nranks = draw(st.integers(min_value=1, max_value=5))
    return widths, edges, seeds, nranks


def sequential_eval(widths, edges, seeds) -> Dict[Tuple[int, int], int]:
    values = {(0, i): seeds[i] for i in range(widths[0])}
    by_dst: Dict[Tuple[int, int], List] = {}
    for src, dst, w in edges:
        by_dst.setdefault(dst, []).append((src, w))
    for l in range(1, len(widths)):
        for j in range(widths[l]):
            values[(l, j)] = sum(
                values[src] * w for src, w in by_dst.get((l, j), [])
            )
    return values


@given(layered_dags())
@_settings
def test_random_dag_matches_sequential(dag):
    widths, edges, seeds, nranks = dag
    expect = sequential_eval(widths, edges, seeds)
    by_src: Dict[Tuple[int, int], List] = {}
    indeg: Dict[Tuple[int, int], int] = {}
    for src, dst, w in edges:
        by_src.setdefault(src, []).append((dst, w))
        indeg[dst] = indeg.get(dst, 0) + 1

    for backend_cls in (ParsecBackend, MadnessBackend):
        got: Dict[Tuple[int, int], int] = {}
        layer_edges = [ttg.Edge(f"l{l}") for l in range(len(widths))]
        tts = []

        def make_body(l):
            def body(key, acc, outs):
                node = (l, key)
                got[node] = acc
                for (dl, dj), w in by_src.get(node, []):
                    outs.send(0, dj, acc * w)

            return body

        for l in range(len(widths)):
            outs_edges = [layer_edges[l + 1]] if l + 1 < len(widths) else []
            tt = ttg.make_tt(
                make_body(l), [layer_edges[l]], outs_edges,
                name=f"L{l}", keymap=lambda j, l=l: (j + l) % nranks,
            )
            tt.set_input_reducer(0, lambda a, b: a + b)
            tts.append(tt)

        ex = ttg.TaskGraph(tts).executable(backend_cls(Cluster(HAWK, nranks)))
        # dynamic stream sizes: layer-0 nodes get 1 seed; others in-degree
        for i in range(widths[0]):
            ex.set_argstream_size(tts[0], 0, i, 1)
            ex.inject(tts[0], 0, i, seeds[i])
        for l in range(1, len(widths)):
            for j in range(widths[l]):
                ex.set_argstream_size(tts[l], 0, j, indeg.get((l, j), 0))
        ex.fence()
        # nodes with zero in-degree (unreached) fire with None; drop them
        got = {k: v for k, v in got.items() if v is not None}
        expect_nonzero = {
            k: v for k, v in expect.items()
            if k[0] == 0 or indeg.get(k, 0) > 0
        }
        assert got == expect_nonzero, backend_cls.__name__


# --------------------------------------------------------------------------
# Matching semantics against an oracle.
#
# One SRC task emits a drawn list of send / broadcast / broadcast_multi
# actions over a few edges (some edges are fed by ``inject`` instead); a few
# consumer templates hang their inputs on those edges, several inputs per
# edge allowed.  Edge kinds decide how streams get their size:
#
# - "plain" / "injected": data only.  Consumer inputs are single-message
#   (if no key gets more than one message), static-size streams, or dynamic
#   streams sized *before* any data by ``ex.set_argstream_size`` -- with
#   size 0 for keys that get nothing.
# - "controlled": every consumer is a dynamic stream and SRC closes each
#   key *after* its data, by ``set_size`` or ``finalize`` through the
#   output terminal.
#
# Everything comes from one source rank (or from outside before the fence),
# so arrival order per instance is program order and nothing can overflow
# or arrive after a fire.  Instances left unsatisfied simply stay pending.
# --------------------------------------------------------------------------

KEYS = (0, 1, 2, 3)
_values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
_key_lists = st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True)


def _fold(acc, value):
    """The reducer of every streaming input (tolerates control messages)."""
    return (acc or 0) + (value or 0)


def _first_message_only(actions):
    """Drop every target that would give an (output terminal, key) pair a
    second message."""
    seen, kept = set(), []
    for act in actions:
        spec = act[1] if act[0] == "multi" else [(act[1], act[2])]
        fresh = []
        for term, keys in spec:
            keys = [k for k in ([keys] if act[0] == "send" else keys)
                    if (term, k) not in seen]
            seen.update((term, k) for k in keys)
            if keys:
                fresh.append((term, keys))
        if not fresh:
            continue
        if act[0] == "multi":
            kept.append(("multi", fresh, act[2]))
        else:
            term, keys = fresh[0]
            kept.append((act[0], term, keys[0] if act[0] == "send" else keys,
                         act[3]))
    return kept


@st.composite
def matching_cases(draw):
    nranks = draw(st.integers(min_value=1, max_value=4))
    arity = draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=1, max_size=3))
    inputs = [(t, i) for t, n in enumerate(arity) for i in range(n)]
    nedges = draw(st.integers(min_value=1, max_value=min(4, len(inputs))))
    # every edge has a consumer: the first ``nedges`` inputs take one each
    edge_of = {inp: j if j < nedges
               else draw(st.integers(min_value=0, max_value=nedges - 1))
               for j, inp in enumerate(inputs)}
    # Half the cases lean towards single-message inputs (at most one
    # message per edge and key), so that multi-input templates without any
    # stream -- the common case in the applications -- do fire.
    lean_single = draw(st.booleans())
    kinds = [draw(st.sampled_from(["plain", "injected"] if lean_single else
                                  ["plain", "controlled", "injected"]))
             for _ in range(nedges)]
    fed = [e for e in range(nedges) if kinds[e] != "injected"]
    # ---- what SRC sends (indices into ``fed`` = its output terminals)
    actions = []
    if fed:
        terminals = st.integers(min_value=0, max_value=len(fed) - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            how = draw(st.sampled_from(["send", "broadcast", "multi"]))
            if how == "send":
                actions.append(("send", draw(terminals),
                                draw(st.sampled_from(KEYS)), draw(_values)))
            elif how == "broadcast":
                actions.append(("broadcast", draw(terminals),
                                draw(_key_lists), draw(_values)))
            else:
                spec = draw(st.lists(st.tuples(terminals, _key_lists),
                                     min_size=1, max_size=3,
                                     unique_by=lambda tk: tk[0]))
                actions.append(("multi", spec, draw(_values)))
    injected = {e: draw(st.lists(st.tuples(st.sampled_from(KEYS), _values),
                                 max_size=4, unique_by=(
                                     (lambda kv: kv[0]) if lean_single else None)))
                for e in range(nedges) if kinds[e] == "injected"}
    if lean_single:
        actions = _first_message_only(actions)
    # ---- messages per (edge, key), in arrival order
    messages: Dict[Tuple[int, int], List] = {}
    for act in actions:
        if act[0] == "send":
            targets = [(act[1], [act[2]])]
        elif act[0] == "broadcast":
            targets = [(act[1], act[2])]
        else:
            targets = act[1]
        for term, keys in targets:
            for k in keys:
                messages.setdefault((fed[term], k), []).append(act[-1])
    for e, msgs in injected.items():
        for k, v in msgs:
            messages.setdefault((e, k), []).append(v)
    cap = [max([1] + [len(m) for (e2, _), m in messages.items() if e2 == e])
           for e in range(nedges)]
    # ---- terminal kinds compatible with what their edge carries
    terminal = {}
    for inp in inputs:
        e = edge_of[inp]
        if kinds[e] == "controlled":
            terminal[inp] = "dynamic"
        else:
            allowed = ["static", "sized_before"] + (
                ["single"] * (6 if lean_single else 1) if cap[e] == 1 else [])
            terminal[inp] = draw(st.sampled_from(allowed))
    # keys whose stream gets closed (most, not all: the rest stay pending)
    closed = {(e, k): draw(st.sampled_from(["set_size", "finalize", "finalize", None]))
              for e in range(nedges) if kinds[e] == "controlled" for k in KEYS}
    sized = {(inp, k): draw(st.integers(min_value=0, max_value=4)) > 0
             for inp in inputs if terminal[inp] == "sized_before" for k in KEYS}
    return dict(
        nranks=nranks, arity=arity, inputs=inputs, edge_of=edge_of, kinds=kinds,
        fed=fed, actions=actions, injected=injected, messages=messages,
        cap=cap, terminal=terminal, closed=closed, sized=sized,
        typed=[draw(st.booleans()) for _ in range(nedges)],
        stride=[draw(st.integers(min_value=0, max_value=3)) for _ in arity],
        src_rank=draw(st.integers(min_value=0, max_value=nranks - 1)),
        backend=draw(st.sampled_from([ParsecBackend, MadnessBackend])),
        engine=draw(st.sampled_from(ENGINE_KINDS)),
    )


def oracle_fired(case):
    """Which instances fire, by the definition: *scan* every input of an
    instance for "satisfied", fold streams in arrival order, and ask the
    keymap for the rank at every fire."""
    fired, pending = [], 0
    for t, n in enumerate(case["arity"]):
        for k in KEYS:
            args, satisfied, touched = [], [], False
            for i in range(n):
                inp = (t, i)
                e = case["edge_of"][inp]
                msgs = case["messages"].get((e, k), [])
                kind = case["terminal"][inp]
                if kind == "single":
                    expected = 1
                elif kind == "static":
                    expected = case["cap"][e]
                elif kind == "sized_before":
                    expected = len(msgs) if case["sized"][inp, k] else None
                else:  # closed through the output terminal, after the data
                    expected = (len(msgs) if case["closed"][e, k] is not None
                                else None)
                touched = touched or bool(msgs) or (
                    kind in ("sized_before", "dynamic") and expected is not None)
                satisfied.append(expected is not None and len(msgs) == expected)
                if kind == "single":
                    args.append(msgs[0] if msgs else None)
                elif msgs:
                    acc = msgs[0]
                    for v in msgs[1:]:
                        acc = _fold(acc, v)
                    args.append(acc)
                else:
                    args.append(None)
            if all(satisfied):
                rank = (k * case["stride"][t] + t) % case["nranks"]
                fired.append((f"C{t}", k, tuple(args), rank))
            elif touched:
                pending += 1
    return sorted(fired, key=repr), pending


def run_matching_case(case, sanitize):
    nranks = case["nranks"]
    # None rides on control messages, which a typed value would refuse
    edges = [ttg.Edge(f"e{e}", key_type=int) if case["typed"][e]
             else ttg.Edge(f"e{e}") for e in range(len(case["kinds"]))]
    fired = []
    consumers = []
    for t, n in enumerate(case["arity"]):
        def body(key, *rest, name=f"C{t}"):
            *args, outs = rest
            fired.append((name, key, tuple(args), outs.rank))

        tt = ttg.make_tt(
            body, [edges[case["edge_of"][t, i]] for i in range(n)], [],
            name=f"C{t}",
            keymap=lambda k, t=t: (k * case["stride"][t] + t) % nranks)
        for i in range(n):
            kind = case["terminal"][t, i]
            if kind == "static":
                tt.set_input_reducer(i, _fold, size=case["cap"][case["edge_of"][t, i]])
            elif kind != "single":
                tt.set_input_reducer(i, _fold)
        consumers.append(tt)

    def src_body(key, outs):
        for act in case["actions"]:
            if act[0] == "send":
                outs.send(act[1], act[2], act[3])
            elif act[0] == "broadcast":
                outs.broadcast(act[1], act[2], act[3])
            else:
                outs.broadcast_multi(act[1], act[2])
        for term, e in enumerate(case["fed"]):
            for k in KEYS:
                how = case["closed"].get((e, k))
                if how == "set_size":
                    outs.set_size(term, k, len(case["messages"].get((e, k), [])))
                elif how == "finalize":
                    outs.finalize(term, k)

    src = ttg.make_tt(src_body, [], [edges[e] for e in case["fed"]], name="SRC",
                      keymap=lambda k: case["src_rank"])
    cluster = Cluster.with_engine(HAWK, nranks, case["engine"])
    with warnings.catch_warnings():
        # lint infos on unfed edges; TTG-San reports the stranded instances
        warnings.simplefilter("ignore")
        ex = ttg.TaskGraph([src] + consumers).executable(
            case["backend"](cluster), sanitize=sanitize)
        for inp in case["inputs"]:
            e = case["edge_of"][inp]
            if case["kinds"][e] == "injected":
                for k, v in case["injected"][e]:
                    ex.inject(consumers[inp[0]], inp[1], k, v)
            if case["terminal"][inp] == "sized_before":
                for k in KEYS:
                    if case["sized"][inp, k]:
                        ex.set_argstream_size(
                            consumers[inp[0]], inp[1], k,
                            len(case["messages"].get((e, k), [])))
        ex.invoke(src, 0)
        ex.fence()
    return sorted(fired, key=repr), ex


@given(matching_cases())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_matching_agrees_with_scan_oracle(case):
    want, want_pending = oracle_fired(case)
    for sanitize in (False, True):
        got, ex = run_matching_case(case, sanitize)
        assert got == want, f"sanitize={sanitize}"
        assert ex.pending_instances == want_pending
        if sanitize:
            # every hook point ran, and the only thing to report is what
            # the oracle also sees: the instances left waiting
            rules = [f.rule.id for f in ex.sanitizer.findings]
            assert rules == ["SAN006"] * want_pending
