import gc
import random

import pytest

from ctxflow.choreography import CHANNELS, YOUNG_GC_THRESHOLD, LatencyConfig, Simulation
from ctxflow.context_engine import ContextEngine
from ctxflow.errors import ForbiddenRoute
from ctxflow.process_engine import ProcessEngine
from ctxflow.rules_engine import RulesEngine
from ctxflow.scenario import build_simulation, parse_scenario

from .conftest import logistics_scenario_data
from .scenario_gen import random_scenario


class Recorder:
    def __init__(self):
        self.deliveries = []

    def __call__(self, kind, payload):
        self.deliveries.append((kind, payload))


# --- routing -----------------------------------------------------------------


def test_rules_to_context_is_allowed():
    sim = Simulation()
    sim.route("rules", "context", "ContextRequest")  # no exception


def test_process_to_context_is_forbidden():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.route("process", "context", "ContextRequest")
    with pytest.raises(ForbiddenRoute):
        sim.route("context", "process", "ContextSnapshot")


def test_unknown_pool_and_kind_rejected():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.route("process", "nowhere", "Decision")
    with pytest.raises(ForbiddenRoute):
        sim.route("process", "rules", "Telegram")


def test_real_kind_on_wrong_channel_is_forbidden():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.route("process", "rules", "Decision")
    with pytest.raises(ForbiddenRoute):
        sim.route("rules", "context", "SourceEvent")


def test_each_engine_handles_exactly_what_its_channels_deliver():
    delivered = {}
    for (_, receiver), kinds in CHANNELS.items():
        delivered.setdefault(receiver, set()).update(kinds)
    assert set(ProcessEngine.HANDLERS) == delivered["process"]
    assert set(RulesEngine.HANDLERS) == delivered["rules"]
    assert set(ContextEngine.HANDLERS) == delivered["context"]
    assert delivered["external"] == {"PollRequest"}


def test_send_enforces_route():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.send("process", "context", "ContextRequest", {})


# --- delivery ordering ---------------------------------------------------------


def test_same_channel_same_tick_fifo():
    sim = Simulation()
    recorder = Recorder()
    sim.register_pool("rules", recorder)
    sim.send("process", "rules", "RuleEvalRequest", {"n": 1})
    sim.send("process", "rules", "RuleEvalRequest", {"n": 2})
    sim.send("process", "rules", "RuleEvalRequest", {"n": 3})
    sim.is_quiescent = lambda: False
    sim.run()
    assert [p["n"] for (_, p) in recorder.deliveries] == [1, 2, 3]


def test_latency_defaults_to_one_tick():
    sim = Simulation()
    seen = []
    sim.register_pool("rules", lambda kind, payload: seen.append(sim.now))
    sim.send("process", "rules", "RuleEvalRequest", {})
    sim.run()
    assert seen == [1]


def test_channel_latency_override():
    sim = Simulation(latency=LatencyConfig(default=1, channels={"process->rules": 5}))
    seen = []
    sim.register_pool("rules", lambda kind, payload: seen.append(sim.now))
    sim.send("process", "rules", "RuleEvalRequest", {})
    sim.run()
    assert seen == [5]


def test_clock_never_goes_backwards():
    sim = Simulation()
    ticks = []
    sim.register_pool("rules", lambda kind, payload: ticks.append(sim.now))
    for _ in range(5):
        sim.send("process", "rules", "RuleEvalRequest", {})
    sim.timer("rules", {}, 9)
    sim.run()
    assert ticks == sorted(ticks)


def test_max_steps_truncates_and_marks_trace():
    data = logistics_scenario_data()
    scenario, violations = parse_scenario(data)
    assert not violations
    assembly = build_simulation(scenario, max_steps=5)
    trace = assembly.simulation.run()
    assert assembly.simulation.truncated
    assert trace.find("run_truncated")


@pytest.fixture
def host_gc_thresholds():
    """Restores the collector thresholds a test sets as the host's."""
    saved = gc.get_threshold()
    yield
    gc.set_threshold(*saved)


def run_complete():
    build_simulation(parse_scenario(logistics_scenario_data())[0]).simulation.run()


def run_truncated():
    sim = build_simulation(parse_scenario(logistics_scenario_data())[0], max_steps=5).simulation
    sim.run()
    assert sim.truncated


def run_raising():
    def handler(kind, payload):
        raise RuntimeError("handler failed")

    sim = Simulation()
    sim.register_pool("rules", handler)
    sim.send("process", "rules", "RuleEvalRequest", {})
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()


@pytest.mark.parametrize("run", [run_complete, run_truncated, run_raising])
def test_run_restores_the_collector_thresholds(host_gc_thresholds, run):
    gc.set_threshold(700, 9, 8)
    run()
    assert gc.get_threshold() == (700, 9, 8)


@pytest.mark.parametrize("host, during", [
    (700, YOUNG_GC_THRESHOLD),
    (0, 0),  # automatic collection off stays off
    (YOUNG_GC_THRESHOLD * 2, YOUNG_GC_THRESHOLD * 2),
])
def test_run_raises_the_young_threshold_while_it_runs(host_gc_thresholds, host, during):
    gc.set_threshold(host, 9, 8)
    sim = Simulation()
    seen = []
    sim.register_pool("rules", lambda kind, payload: seen.append(gc.get_threshold()))
    sim.send("process", "rules", "RuleEvalRequest", {})
    sim.run()
    assert seen == [(during, 9, 8)]
    assert gc.get_threshold() == (host, 9, 8)


# --- trace-level properties -------------------------------------------------------


def run_logistics():
    scenario, violations = parse_scenario(logistics_scenario_data())
    assert not violations
    assembly = build_simulation(scenario)
    return assembly, assembly.simulation.run()


MESSAGE_KINDS = {
    "Register", "ContextRequest", "ContextSnapshot", "ContextNotification",
    "RuleEvalRequest", "Decision", "BreakRollback", "StartCompensation",
    "SourceEvent", "PollRequest", "PollResponse",
    "ProcessCompleted", "ProcessCancelled", "ShutdownModel",
}


def test_per_channel_fifo_over_full_run():
    _, trace = run_logistics()
    per_channel = {}
    for record in trace:
        if record.kind in MESSAGE_KINDS:
            channel = (record.pool, record.payload["to"])
            per_channel.setdefault(channel, []).append(record.payload["msg_seq"])
    assert per_channel, "no messages traced"
    for channel, seqs in per_channel.items():
        assert seqs == sorted(seqs), f"out-of-order delivery on {channel}"


def test_trace_seq_strictly_increasing():
    _, trace = run_logistics()
    seqs = [record.seq for record in trace]
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_break_rollback_originates_from_rules_only():
    _, trace = run_logistics()
    rollbacks = [r for r in trace if r.kind == "BreakRollback"]
    assert rollbacks
    assert all(r.pool == "rules" for r in rollbacks)


def test_no_forbidden_route_in_passing_trace():
    _, trace = run_logistics()
    for record in trace:
        if record.kind in MESSAGE_KINDS:
            assert (record.pool, record.payload["to"]) != ("process", "context")
            assert (record.pool, record.payload["to"]) != ("context", "process")


def test_execution_precedes_no_initialization(tmp_path):
    """Per instance: no gate evaluation before the init snapshot round-trip."""
    _, trace = run_logistics()
    init_done = {}
    for record in trace:
        if record.kind == "Decision" and record.payload["data"].get("evaluation") == "init":
            init_done.setdefault(record.payload["data"]["instance"], record.seq)
    assert init_done
    for record in trace:
        if record.kind == "RuleEvalRequest":
            instance = record.payload["data"]["instance"]
            assert record.seq > init_done[instance]


def test_every_gate_entry_resolves():
    """Each rule-evaluation request is eventually answered by a decision
    application (checkpoint) or the instance's cancellation."""
    _, trace = run_logistics()
    records = list(trace)
    requests = [(i, r.payload["data"]) for i, r in enumerate(records)
                if r.kind == "RuleEvalRequest"]
    assert requests
    for index, request in requests:
        resolved = any(
            (r.kind == "checkpoint"
             and r.payload["instance"] == request["instance"]
             and r.payload["gate"] == request["gate"])
            or (r.kind == "instance_status"
                and r.payload["instance"] == request["instance"]
                and r.payload["status"] == "Cancelled")
            for r in records[index:]
        )
        assert resolved, f"unresolved gate entry {request}"


def test_identical_seeds_identical_traces_with_jitter():
    rng = random.Random(99)
    data = random_scenario(rng, jitter=2)
    scenario_a, _ = parse_scenario(data)
    scenario_b, _ = parse_scenario(data)
    trace_a = build_simulation(scenario_a).simulation.run()
    trace_b = build_simulation(scenario_b).simulation.run()
    assert trace_a.to_text() == trace_b.to_text()


def test_different_seeds_diverge_under_jitter():
    rng = random.Random(100)
    data = random_scenario(rng, jitter=3)
    scenario_a, _ = parse_scenario(data)
    scenario_b, _ = parse_scenario(data)
    trace_a = build_simulation(scenario_a, seed=1).simulation.run()
    trace_b = build_simulation(scenario_b, seed=2).simulation.run()
    assert trace_a.to_text() != trace_b.to_text()


def test_quiescent_run_stops_despite_pending_poll_timers():
    scenario, _ = parse_scenario(logistics_scenario_data())
    assembly = build_simulation(scenario)
    assembly.simulation.run()
    assert not assembly.simulation.truncated
    assert assembly.process.all_terminal()


def test_one_parsed_scenario_runs_twice_the_same():
    # bpm answers polls, and every model holds shippingMethod from the
    # start, so bpm is polled for it before p1 mirrors it at tick 18
    data = logistics_scenario_data()
    next(s for s in data["sources"] if s["id"] == "bpm").update(mode="poll", interval=4)
    next(c for c in data["catalog"] if c["id"] == "shippingMethod")["requires_value"] = False
    data["masters"][0]["categories"].append("shippingMethod")
    scenario, violations = parse_scenario(data)
    assert not violations
    first = build_simulation(scenario).simulation.run()
    polled = first.find("PollResponse", to="context")
    bpm = [r.payload["data"] for r in polled if r.payload["data"]["source"] == "bpm"]
    assert bpm[0]["absent"] == ["shippingMethod"]
    assert build_simulation(scenario).simulation.run().to_text() == first.to_text()
