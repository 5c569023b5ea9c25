"""The in-memory trace: one list per field, records built when read."""

import gc
import tracemalloc

import pytest

from ctxflow.scenario import build_simulation, parse_scenario
from ctxflow.trace import Trace, TraceRecord

from .conftest import logistics_scenario_data
from .test_trace_digests import ladder_rung


def test_emit_keeps_no_object_per_record():
    # a record is its index in four lists, so emitting one adds four
    # pointers (and the lists' spare room) and no object of its own
    trace = Trace()
    payload = {"model": "ctx.p1", "category": "weather", "value": {"payload": "rain"}}
    tick, count = 4_000, 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            trace.emit(tick, "context", "value_updated", payload)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == count
    assert grown < 40 * count, f"{grown / count:.1f} B per record"


def test_records_is_a_live_read_only_sequence():
    trace = Trace()
    records = trace.records
    assert len(records) == 0 and list(records) == [] and not records
    payloads = [{"n": n} for n in range(5)]
    for n, payload in enumerate(payloads):
        assert trace.emit(10 + n, "context", f"kind{n % 2}", payload) is None
    assert trace.records is records and len(records) == len(trace) == 5
    expected = [TraceRecord(n, 10 + n, "context", f"kind{n % 2}", payloads[n])
                for n in range(5)]
    assert list(records) == list(trace) == expected
    assert [records[n] for n in range(-5, 5)] == expected * 2
    assert records[1:4] == expected[1:4] and records[::-2] == expected[::-2]
    assert records[-1].payload is payloads[-1]
    # built on each read: equal, not the same object
    assert records[0] == records[0] and records[0] is not records[0]
    assert records.index(expected[3]) == 3 and expected[2] in records
    for index in (5, -6):
        with pytest.raises(IndexError):
            records[index]
    with pytest.raises(TypeError):
        records["0"]
    with pytest.raises(TypeError):
        records[0] = expected[0]
    assert not hasattr(records, "append")


@pytest.mark.parametrize("seq", [2, 0, 1.0, True, "1"])
def test_read_refuses_a_seq_that_is_not_the_record_index(tmp_path, seq):
    path = tmp_path / "run.trace"
    path.write_text(
        '{"kind":"a","payload":{},"pool":"context","seq":0,"tick":0}\n'
        f'{{"kind":"b","payload":{{}},"pool":"context","seq":{seq!r},"tick":0}}\n'
        .replace("True", "true").replace("'", '"'))
    with pytest.raises(ValueError, match="line 2: seq "):
        Trace.read(path)


def test_read_numbers_lines_as_the_file_does(tmp_path):
    # a blank line is no record, so the record after it has index 1 on line 3
    path = tmp_path / "run.trace"
    path.write_text('{"kind":"a","payload":{},"pool":"p","seq":0,"tick":0}\n\n'
                    '{"kind":"b","payload":{},"pool":"p","seq":1,"tick":0}\n'
                    '{"kind":"c","payload":{},"pool":"p","seq":3,"tick":0}\n')
    with pytest.raises(ValueError, match="line 4: seq 3 is not the record's index 2"):
        Trace.read(path)
    path.write_text(path.read_text().replace('"seq":3', '"seq":2'))
    assert [record.kind for record in Trace.read(path)] == ["a", "b", "c"]


def test_find_is_a_filter_over_the_records():
    scenario, violations = parse_scenario(logistics_scenario_data())
    assert not violations, violations[:3]
    trace = build_simulation(scenario).simulation.run()
    records = list(trace)
    kinds = sorted({record.kind for record in records})
    for kind in (None, *kinds, "no_such_kind"):
        assert trace.find(kind) == [r for r in records if kind is None or r.kind == kind]
    for record in records[::5]:
        for key, value in record.payload.items():
            for kind in (None, record.kind):
                assert trace.find(kind, **{key: value}) == [
                    r for r in records if (kind is None or r.kind == kind)
                    and r.payload.get(key) == value], (kind, key)
    assert trace.find("value_updated", category="no_such_category") == []


def test_find_matches_no_pair_on_a_payload_that_is_not_a_dict(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text('{"kind":"k","payload":[1],"pool":"p","seq":0,"tick":0}\n')
    trace = Trace.read(path)
    assert trace.find("k", a=1) == [] and trace.find(None, a=1) == []
    assert trace.find("k") == trace.find() == [TraceRecord(0, 0, "p", "k", [1])]


def test_a_run_holds_few_bytes_per_record():
    # value_updated and delivery records, most of a run's, are kept as rows:
    # about 185 B per record on CPython 3.11, against 298 as dicts
    scenario, violations = parse_scenario(ladder_rung(100))
    assert not violations, violations[:3]
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assembly = build_simulation(scenario)
        trace = assembly.simulation.run()
        del assembly
        held = (tracemalloc.get_traced_memory()[0] - before) / len(trace)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 250, f"{held:.0f} B per record"


def test_writing_a_trace_leaves_no_cyclic_garbage(tmp_path):
    # a line function holds its writer's memo and nothing that leads back to
    # the writer, so reference counting frees each write, memo and all
    scenario, _ = parse_scenario(logistics_scenario_data())
    trace = build_simulation(scenario).simulation.run()
    writes = {"to_line": trace.records[0].to_line, "to_text": trace.to_text,
              "write": lambda: trace.write(tmp_path / "logistics.trace")}
    left = {}
    gc.disable()
    try:
        for name, write in writes.items():
            gc.collect()
            write()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == {"to_line": 0, "to_text": 0, "write": 0}
