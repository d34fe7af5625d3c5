"""Tracer span trees, self times and metric naming of the benchmark."""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import probes  # noqa: E402
from bench.run import E2E_UNITS, WORKLOAD_NAMES  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from bench.tracer import Span, Tracer, module_self_times, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(i, name, start, end, parent=None, hot=0.0):
    return Span(i, name, start, end, parent=parent, hot_s=hot)


def test_self_time_nested_tree():
    spans = [_span(1, "harness.pass", 0.0, 10.0),
             _span(2, "pde.a", 1.0, 4.0, parent=1),
             _span(3, "model.b", 2.0, 3.0, parent=2),
             _span(4, "cli.c", 5.0, 9.0, parent=1, hot=0.5)]
    st = self_times(spans)
    assert st == {1: 3.0, 2: 2.0, 3: 1.0, 4: 3.5}
    assert module_self_times(spans, {}) == {"harness": 3.0, "pde": 2.0,
                                            "model": 1.0, "cli": 3.5}
    # self times plus hot-call time add up to the root duration
    assert sum(st.values()) + 0.5 == 10.0


def test_wrap_records_parents_hot_calls_and_restores():
    class Mod:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.leaf(x) + Mod.leaf(x)

    orig_leaf, orig_outer = Mod.leaf, Mod.outer
    t = Tracer()
    t.wrap(Mod, "leaf", "model.leaf", hot=True)
    t.wrap(Mod, "outer", "pde.outer",
           describe=lambda sp, a, k, r, s: sp.attrs.update(result=r))
    try:
        with t.span("harness.pass") as root:
            assert Mod.outer(1) == 4
    finally:
        t.uninstall()
    assert Mod.leaf is orig_leaf and Mod.outer is orig_outer
    outer = next(s for s in t.spans if s.name == "pde.outer")
    assert outer.parent == root.id
    assert outer.attrs == {"result": 4}
    assert t.hot["model.leaf"].count == 2
    assert outer.hot_s == t.hot["model.leaf"].total_s
    st = self_times(t.spans)
    total = sum(st.values()) + t.hot["model.leaf"].total_s
    assert abs(total - root.duration) < 1e-9


def test_span_on_second_thread_raises():
    t = Tracer()

    def work():
        with t.span("particle.sim"):
            pass

    with ThreadPoolExecutor(max_workers=1) as ex:
        with pytest.raises(RuntimeError):
            ex.submit(work).result()
    assert t.spans == []


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert {k: m["unit"] for k, m in e2e.items()} == E2E_UNITS
    assert {k: (m["unit"], m["better"]) for k, m in layers.items()} == probes.LAYER_METRICS
    names = list(e2e) + list(layers) + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
