"""One offload decision: what the compiler marks is what the device runs.

The compiled query owns both halves of the decision — capability and
the bare-stream policy — so ``repro explain``, the simulator and the
suspend predictor cannot disagree. These tests pin that on the 22
TPC-H queries:

- explain equals execution: the offload roots of every compilation
  unit are exactly the subtrees the simulator's ``device.subtree``
  spans report;
- every node's decision equals the pinned decisions recorded before
  the policy moved into the compiler, except the nodes of the bare
  column streams listed below, which are now host.
"""

import json
from pathlib import Path

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import BARE_STREAM_NOTE, QueryCompiler
from repro.obs import Tracer
from repro.sqlir import plan_sql
from repro.sqlir.plan import assign_node_ids

PIN = json.loads(
    (Path(__file__).parent / "fixtures" / "offload_decisions.json")
    .read_text()
)
RATIOS = {"sf1000": 1000 / 0.01, "native": 1.0}
QUERIES = list(tpch.ALL_QUERIES)

# Post-order indices (in the top-level plan) of the roots that are bare
# column streams: offloadable, but neither reducing nor feeding a
# device-assisted aggregate. The pinned compiler offered them to the
# device; the simulator always read them on the host.
BARE_STREAM_ROOTS = {
    "sf1000": {
        "q09": (0, 1, 6, 12),
        "q13": (0, 1),
        "q15": (0,),
        "q16": (0, 1),
        "q18": (0, 5, 7),
        "q20": (4, 5),
        "q22": (0, 4),
    },
    "native": {
        "q13": (0,),
        "q15": (0,),
        "q18": (0, 5, 7),
        "q22": (0, 4),
    },
}

ROADMAP_SQL = (
    "SELECT l_quantity FROM lineitem ORDER BY l_quantity LIMIT 2"
)


def _decision_rows(compiled) -> list[list]:
    rows = []
    for u, unit in enumerate(compiled.flatten()):
        for i, node in enumerate(unit.plan.walk()):
            d = unit.decisions[id(node)]
            rows.append([
                u, i, type(node).__name__, d.offloadable, d.reason.name,
                d.note, d.device_assisted, d.stream_for_assist,
            ])
    return rows


def _subtree_indices(plan, root_indices) -> set[int]:
    """Post-order indices of every node under the given roots."""
    nodes = list(plan.walk())
    out: set[int] = set()
    for index in root_indices:
        subtree = {id(n) for n in nodes[index].walk()}
        out |= {i for i, n in enumerate(nodes) if id(n) in subtree}
    return out


def _device_subtree_nodes(db, plan, ratio) -> tuple[set, set]:
    """(offload-root node ids, ``device.subtree`` span node ids)."""
    assign_node_ids(plan)
    tracer = Tracer()
    result = AquomanSimulator(
        db, DeviceConfig(scale_ratio=ratio), tracer=tracer
    ).run(plan)
    roots = {
        root.node_id
        for unit in result.compiled.flatten()
        for root in unit.offload_roots()
    }
    spans = {
        record[-1]["node"]
        for _, record in tracer.records()
        if record[0] == "device.subtree"
    }
    return roots, spans


class TestExplainEqualsExecution:
    @pytest.mark.parametrize("label", sorted(RATIOS))
    @pytest.mark.parametrize("qnum", QUERIES)
    def test_offload_roots_are_the_device_subtrees(
        self, small_db, qnum, label
    ):
        roots, spans = _device_subtree_nodes(
            small_db, tpch.query(qnum), RATIOS[label]
        )
        assert roots == spans

    @pytest.mark.parametrize("qnum", QUERIES)
    def test_explain_marks_exactly_the_root_subtrees(self, small_db, qnum):
        compiled = QueryCompiler(
            small_db, scale_ratio=RATIOS["sf1000"]
        ).compile(tpch.query(qnum))
        on_device = sum(
            len(list(root.walk()))
            for unit in compiled.flatten()
            for root in unit.offload_roots()
        )
        assert compiled.explain().count("[DEVICE]") == on_device

    def test_roadmap_sql_explains_and_runs_on_the_host(self, small_db):
        compiled = QueryCompiler(
            small_db, scale_ratio=RATIOS["sf1000"]
        ).compile(plan_sql(ROADMAP_SQL, small_db))
        text = compiled.explain()
        assert "[DEVICE]" not in text
        assert BARE_STREAM_NOTE in text

        result = AquomanSimulator(
            small_db, DeviceConfig(scale_ratio=RATIOS["sf1000"])
        ).run(plan_sql(ROADMAP_SQL, small_db))
        assert result.trace.aquoman_flash_bytes == 0
        assert result.trace.offload_fraction_rows == 0.0


class TestDecisionPin:
    @pytest.mark.parametrize("label", sorted(RATIOS))
    @pytest.mark.parametrize("qnum", QUERIES)
    def test_only_bare_streams_moved_to_the_host(
        self, small_db, qnum, label
    ):
        name = f"q{qnum:02d}"
        plan = tpch.query(qnum)
        compiled = QueryCompiler(
            small_db, scale_ratio=RATIOS[label]
        ).compile(plan)
        moved = _subtree_indices(
            plan, BARE_STREAM_ROOTS[label].get(name, ())
        )
        now = _decision_rows(compiled)
        pinned = PIN[label][name]
        assert [r[:3] for r in now] == [r[:3] for r in pinned]
        for before, after in zip(pinned, now):
            unit, index = before[0], before[1]
            if unit == 0 and index in moved:
                assert before[3:] == [True, "NONE", "", False, False]
                assert after[3:] == [
                    False, "UNSUPPORTED_OP", BARE_STREAM_NOTE,
                    False, False,
                ]
            else:
                assert after == before
