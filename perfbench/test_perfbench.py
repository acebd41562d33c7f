"""Self-tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from persphere import build_rips, delay_embed, diagram_of_cloud  # noqa: E402
from tracer import NULL, Span, Tracer, covered, self_times, summarize  # noqa: E402


def _span(name, start, end, parent=None):
    s = Span(name, None, parent, start)
    s.end = end
    return s


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(9.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 2.0
    assert covered([(4.0, 6.0), (1.0, 2.0), (5.0, 5.5)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_children_only():
    spans = [
        _span("pass", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 4.0, 6.0, parent=0),
        _span("c", 2.0, 3.0, parent=1),  # grandchild: counts against a, not pass
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    summary = summarize(spans + [_span("b", 7.0, 7.5, parent=0)])
    assert summary["b"]["calls"] == 2
    assert summary["b"]["self_s"] == 2.5
    assert summary["pass"]["self_s"] == 4.5


def test_tracer_records_parent_item_and_warnings():
    tr = Tracer()
    with tr.span("pass"):
        with tr.span("sphere.geodesic", item=(1, 2)):
            warnings.warn("clipped", RuntimeWarning)
        with tr.span("density.kde", item=3):
            pass
    names = [s.name for s in tr.spans]
    assert names == ["pass", "sphere.geodesic", "density.kde"]
    assert [s.parent for s in tr.spans] == [None, 0, 0]
    assert tr.spans[1].item == (1, 2) and tr.spans[1].warnings == 1
    assert all(s.end >= s.start for s in tr.spans)
    own = self_times(tr.spans)
    whole = tr.spans[0].end - tr.spans[0].start
    assert math.isclose(sum(own), whole, rel_tol=1e-9, abs_tol=1e-12)


def test_tracer_closes_span_on_error():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("x"):
            raise ValueError("boom")
    assert tr.spans[0].end is not None
    with tr.span("y"):
        pass
    assert tr.spans[1].parent is None


def test_null_tracer_is_reusable():
    with NULL.span("a"):
        with NULL.span("b", item=1):
            pass


@pytest.mark.parametrize("n", [3, 7, 12, 20])
@pytest.mark.parametrize("temporal", [False, True])
def test_rips_size_matches_full_scale_filtration(n, temporal):
    cloud = np.random.default_rng(n).normal(size=(n, 3))
    diameter = workloads._cloud_diameter(cloud)
    assert workloads.rips_size(n) == len(build_rips(cloud, diameter, temporal).simplices)


def test_kde_and_assignment_counts():
    assert workloads.kde_flops(10) == 2 * 64 * 64 * 10
    sizes = [3, 5, 8, 2]
    brute = [a + b for i, a in enumerate(sizes) for b in sizes[i + 1 :]]
    assert workloads._assignment_sizes(sizes).tolist() == brute
    assert sum(v**3 for v in brute) == int((workloads._assignment_sizes(sizes) ** 3).sum())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(30) == 50.0
    assert run.tail_percentile(60) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(3000) == 99.0
    assert run.tail_percentile(20000) == 99.9


def test_windowed_tail_is_the_median_over_consecutive_passes():
    passes = [np.arange(1.0, 5.0), np.arange(1.0, 5.0), np.full(4, 9.0), np.arange(1.0, 5.0)]
    # Windows (0,1), (1,2), (2,3) of two passes: p50 of each is 2.5, 6.5, 6.5.
    assert run.windowed_tail(passes, 50.0) == 6.5
    assert run.windowed_tail(passes[1:] + passes[:1], 50.0) == 6.5  # 6.5, 6.5, 2.5
    assert run.windowed_tail(passes[:2], 50.0) == 2.5


def test_class_sizes_are_dealt_in_turn():
    sizes = workloads._class_sizes(10, 15, 2, 3)
    assert sizes.tolist() == [10, 13, 11, 14, 12, 15]
    assert sorted(sizes.tolist()) == list(range(10, 16))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_only_on_seed(name):
    w = workloads.WORKLOADS[name]

    def arrays(seed):
        return [getattr(v, "pairs", v) for v in w.make_inputs(seed)[w.item_key]]

    a, b, c = arrays(5), arrays(5), arrays(6)
    assert len(a) == w.items
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    # Only contents and order change with the seed; the sizes stay fixed.
    assert sorted(x.shape[0] for x in a) == sorted(x.shape[0] for x in c)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_warm_up_slice_does_not_depend_on_seed(name):
    w = workloads.WORKLOADS[name]

    def sizes(seed):
        raw = w.smallest(w.make_inputs(seed), w.warm_items)[w.item_key]
        return sorted(len(getattr(v, "pairs", v)) for v in raw)

    assert len(sizes(1)) == w.warm_items
    assert sizes(1) == sizes(2)


def test_series_full_scale_counts_match_rips_size():
    w = workloads.WORKLOADS["series_pipeline"]
    inp = w.smallest(w.make_inputs(3), 4)
    inp["max_scale"] = [None] * 4
    out = {"clouds": [], "diagrams": []}
    for i, x in enumerate(inp["series"]):
        cloud = delay_embed(x, workloads.EMBED_M, workloads.EMBED_TAU)
        out["clouds"].append(cloud)
        out["diagrams"].append(diagram_of_cloud(cloud, temporal_links=inp["temporal"][i]))
    got = w.breakdown(inp, out, Tracer())
    want = sum(workloads.rips_size(c.shape[0]) for c in out["clouds"])
    assert got["persistence.simplices"] == want


class _FakeWorkload:
    items = 2

    def __init__(self):
        self.runs = 0
        self.setups = 0

    def make_inputs(self, seed):
        return {"seed": seed}

    def warm(self, inp, tmp, meter):
        self.setups += 1

    def run(self, inp, tr, tmp, meter):
        self.runs += 1
        for i in range(self.items):
            with meter.item(i), tr.span("density.kde", i):
                pass
        return {}


def test_measure_alternates_and_runs_each_kind_once():
    fake = _FakeWorkload()
    m = run.measure(fake, 4, 0.0, True, "")
    assert len(m.walls) == 1 and len(m.traced) == 1 and fake.runs == 2
    assert [len(x) for x in m.items] == [2] and m.inputs == {"seed": 4} and m.out is not None
    assert len(m.setups) == fake.setups == 2  # before the first pass, after the untraced one
    assert [s.name for s in m.traced[0][1].spans] == ["pass", "density.kde", "density.kde"]
    assert m.passes[0].samples and m.setups[0].samples  # untraced stretches are probed
    m = run.measure(_FakeWorkload(), 4, 0.0, False, "")
    assert len(m.walls) == run.MIN_PASSES and m.traced == []
    assert len(m.setups) == run.MIN_PASSES + 1


def _meter(samples, begin, end, intervals=()):
    """A closed Meter with the given probe samples, bypassing the kernel."""
    meter = hostspeed.Meter()
    meter.samples = list(samples)
    meter.begin, meter.end = begin, end
    meter.intervals = list(intervals)
    return meter


def test_meter_scales_each_gap_by_local_slowness(monkeypatch):
    monkeypatch.setattr(hostspeed, "NEIGHBOURS", 2)
    nom = hostspeed.NOMINAL_S
    # Samples of 1x, 1x, 2x, 2x the nominal time around three gaps of 1 s.
    starts = [0.0, 1.0 + nom, 2.0 + 2 * nom, 3.0 + 4 * nom]
    durs = [nom, nom, 2 * nom, 2 * nom]
    samples = [(a, a + d) for a, d in zip(starts, durs)]
    # Item 0 lies in gap 0; item 1 spans sample 2, half a second on each side.
    items = [(0, 0.1 + nom, 0.6 + nom), (1, 1.5 + 2 * nom, 2.5 + 4 * nom)]
    meter = _meter(samples, 0.0, samples[-1][1], items)
    # Gap k takes the median of samples k-1..k+2.
    assert meter.slowness() == pytest.approx([1.0, 1.5, 2.0])
    assert meter.raw_s() == pytest.approx(3.0)
    assert meter.scaled_s() == pytest.approx(1.0 / 1.0 + 1.0 / 1.5 + 1.0 / 2.0)
    assert meter.items(2).tolist() == pytest.approx([0.5, 0.5 / 1.5 + 0.5 / 2.0])
    assert meter.items(2, scaled=False).tolist() == pytest.approx([0.5, 1.0])
    assert meter.median_slowness() == pytest.approx(1.5)


def test_meter_samples_inside_a_long_call_and_leaves_them_out(monkeypatch):
    monkeypatch.setattr(hostspeed, "PROBE_EVERY_S", 0.002)  # alarms also land in samples
    with hostspeed.Meter() as meter:
        with meter.item(0):
            t_end = hostspeed.clock() + 0.1
            while hostspeed.clock() < t_end:
                pass
    assert len(meter.samples) >= 4  # start, end and alarms during the busy loop
    assert all(b0 <= a1 for (_, b0), (a1, _) in zip(meter.samples, meter.samples[1:]))
    assert hostspeed._open == []
    whole = meter.end - meter.begin
    in_samples = sum(b - a for a, b in meter.samples)
    assert meter.raw_s() == pytest.approx(whole - in_samples, abs=1e-3)
    (_, lo, hi), = meter.intervals
    in_item = sum(b - a for a, b in meter.samples if a >= lo and b <= hi)
    assert meter.items(1, scaled=False)[0] == pytest.approx(hi - lo - in_item, abs=1e-3)


def test_meter_sums_an_items_intervals_and_skips_probes_when_off():
    with hostspeed.Meter(probe=False) as meter:
        with meter.item(0):
            pass
        with meter.item(0):
            pass
    assert meter.samples == [] and len(meter.intervals) == 2
    assert meter.scaled_s() == meter.raw_s() == meter.end - meter.begin
    assert meter.items(1)[0] == pytest.approx(sum(b - a for _, a, b in meter.intervals))


def test_layer_values_fill_every_metric():
    summaries = [summarize([_span("pass", 0.0, 4.0), _span("density.kde", 1.0, 2.0, 0)])]
    breakdown = summarize([_span("sphere.pga", 0.0, 0.5)])
    counts = {"analysis.distance_matrix.hilbert.pairs": 10}
    values = run.layer_values(summaries, breakdown, counts, [3.0], [(4.0, None)], 1.25)
    assert set(values) == {name for name, _, _ in run.PER_LAYER}
    assert values["host.slowness"] == 1.25
    assert values["density.kde.busy_s"] == 1.0 and values["density.kde.calls"] == 1
    assert values["sphere.pga.busy_s"] == 0.5
    assert values["trace.overhead_s"] == 1.0 and values["trace.glue_s"] == 3.0
    assert values["analysis.distance_matrix.hilbert.per_pair_s"] == 0.0


def test_benchmark_json_matches_the_code():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
