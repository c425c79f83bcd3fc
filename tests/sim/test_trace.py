"""Execution trace queries and Gantt rendering."""

import pytest

from repro.sim.trace import TraceRecord, render_gantt
from repro.sim.tracestore import TraceStore


@pytest.fixture
def trace():
    t = TraceStore()
    cpu = t.lane("cpu:0", "compute", "t", device_kind="cpu")
    gpu = t.lane("gpu0", "compute", "t", device_kind="gpu")
    link = t.lane("link", "transfer", "t", direction="h2d")
    cpu.append(0.0, 1.0, size=100, kernel="k",
               meta={"size": 100, "device_kind": "cpu", "kernel": "k"})
    gpu.append(0.0, 0.5, size=300, kernel="k",
               meta={"size": 300, "device_kind": "gpu", "kernel": "k"})
    link.append(0.5, 0.8, meta={"direction": "h2d"})
    gpu.append(0.8, 1.4, size=200, kernel="j",
               meta={"size": 200, "device_kind": "gpu", "kernel": "j"})
    return t


class TestQueries:
    def test_len_and_iter(self, trace):
        assert len(trace) == 4
        assert [(r.resource_id, r.start) for r in trace.records] == [
            ("cpu:0", 0.0), ("gpu0", 0.0), ("gpu0", 0.8), ("link", 0.5),
        ]

    def test_makespan(self, trace):
        assert trace.makespan() == pytest.approx(1.4)

    def test_makespan_empty(self):
        assert TraceStore().makespan() == 0.0

    def test_by_category(self, trace):
        assert len(trace.by_category("compute")) == 3
        assert len(trace.by_category("transfer")) == 1

    def test_by_resource(self, trace):
        assert len(trace.by_resource("gpu0")) == 2

    def test_busy_time(self, trace):
        assert trace.busy_time("gpu0") == pytest.approx(1.1)
        assert trace.busy_time("gpu0", category="compute") == pytest.approx(1.1)
        assert trace.busy_time("link", category="transfer") == pytest.approx(0.3)

    def test_total_time_per_category(self, trace):
        assert trace.total_time(category="compute") == pytest.approx(2.1)

    def test_elements_by_device(self, trace):
        assert trace.elements_by_device() == {"cpu": 100, "gpu": 500}

    def test_instance_count_by_device(self, trace):
        assert trace.instance_count_by_device() == {"cpu": 1, "gpu": 2}

    def test_duration_property(self):
        r = TraceRecord(resource_id="x", label="t", category="compute",
                        start=1.0, end=3.5)
        assert r.duration == pytest.approx(2.5)


class TestGantt:
    def test_empty_trace(self):
        assert render_gantt(TraceStore()) == "(empty trace)"

    def test_rows_per_resource(self, trace):
        out = render_gantt(trace, width=40)
        lines = out.splitlines()
        assert any(line.startswith("cpu:0") for line in lines)
        assert any(line.startswith("gpu0") for line in lines)
        assert any(line.startswith("link") for line in lines)

    def test_glyphs(self, trace):
        out = render_gantt(trace, width=40)
        assert "#" in out  # compute
        assert "=" in out  # transfer

    def test_resource_filter(self, trace):
        out = render_gantt(trace, width=40, resources=["gpu0"])
        assert "cpu:0" not in out

    def test_resource_filter_accepts_generator(self, trace):
        # regression: the renderer walks ``resources`` twice (name-width
        # pass, then row pass); a generator used to come back empty on the
        # second pass and render a chart with no rows at all
        gen = (rid for rid in ("gpu0", "link"))
        out = render_gantt(trace, width=40, resources=gen)
        assert out == render_gantt(trace, width=40, resources=["gpu0", "link"])
        lines = out.splitlines()
        assert any(line.startswith("gpu0") for line in lines)
        assert any(line.startswith("link") for line in lines)

    def test_narrowest_width_renders_and_narrower_is_rejected(self, trace):
        out = render_gantt(trace, width=12)
        assert all("|" in line for line in out.splitlines()[:-1])
        for width in (11, 0, -3):
            with pytest.raises(ValueError, match="minimum of 12"):
                render_gantt(trace, width=width)
