import gc
import random

import pytest

from ctxflow.choreography import CHANNELS, Bus, LatencyConfig, Simulation
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
    sim.bus.route("rules", "context", "ContextRequest")  # no exception


def test_process_to_context_is_forbidden():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("process", "context", "ContextRequest")
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("context", "process", "ContextSnapshot")


def test_unknown_pool_and_kind_rejected():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("process", "nowhere", "Decision")
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("process", "rules", "Telegram")


def test_real_kind_on_wrong_channel_is_forbidden():
    sim = Simulation()
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("process", "rules", "Decision")
    with pytest.raises(ForbiddenRoute):
        sim.bus.route("rules", "context", "SourceEvent")


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
        sim.bus.send("process", "context", "ContextRequest", {})


# --- delivery ordering ---------------------------------------------------------


def test_same_channel_same_tick_fifo():
    sim = Simulation()
    recorder = Recorder()
    sim.handlers["rules"] = recorder
    sim.bus.send("process", "rules", "RuleEvalRequest", {"n": 1})
    sim.bus.send("process", "rules", "RuleEvalRequest", {"n": 2})
    sim.bus.send("process", "rules", "RuleEvalRequest", {"n": 3})
    sim.is_quiescent = lambda: False
    sim.run()
    assert [p["n"] for (_, p) in recorder.deliveries] == [1, 2, 3]


def test_jitter_keeps_each_channel_fifo():
    sim = Simulation(Bus(seed=3, latency=LatencyConfig(jitter=4)))
    rules, context = Recorder(), Recorder()
    sim.handlers["rules"] = lambda kind, payload: rules(kind, (payload, sim.now))
    sim.handlers["context"] = lambda kind, payload: context(kind, (payload, sim.now))
    for n in range(30):
        sim.bus.send("process", "rules", "RuleEvalRequest", {"n": n})
        sim.bus.send("external", "context", "SourceEvent", {"n": n})
    sim.run()
    for recorder in (rules, context):
        assert [p["n"] for (_, (p, _)) in recorder.deliveries] == list(range(30))
    # the channels drew their delays independently: jitter took effect
    assert ([now for (_, (_, now)) in rules.deliveries]
            != [now for (_, (_, now)) in context.deliveries])


def test_latency_defaults_to_one_tick():
    sim = Simulation()
    seen = []
    sim.handlers["rules"] = lambda kind, payload: seen.append(sim.now)
    sim.bus.send("process", "rules", "RuleEvalRequest", {})
    sim.run()
    assert seen == [1]


def test_channel_latency_override():
    sim = Simulation(Bus(latency=LatencyConfig(default=1, channels={"process->rules": 5})))
    seen = []
    sim.handlers["rules"] = lambda kind, payload: seen.append(sim.now)
    sim.bus.send("process", "rules", "RuleEvalRequest", {})
    sim.run()
    assert seen == [5]


def test_clock_never_goes_backwards():
    sim = Simulation()
    ticks = []
    sim.handlers["rules"] = lambda kind, payload: ticks.append(sim.now)
    for _ in range(5):
        sim.bus.send("process", "rules", "RuleEvalRequest", {})
    sim.bus.timer("rules", {}, 9)
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
def host_collector():
    """Puts back the collector's enabled or disabled state a test sets as the host's."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def watched(sim, probe):
    """``sim``, calling ``probe()`` before each message a pool handles."""
    def watching(handler):
        def handle(kind, payload):
            probe()
            handler(kind, payload)
        return handle

    sim.handlers = {pool: watching(handler) for pool, handler in sim.handlers.items()}
    return sim


def run_complete(probe):
    sim = watched(build_simulation(parse_scenario(logistics_scenario_data())[0]).simulation,
                  probe)
    sim.run()
    assert not sim.truncated
    return sim


def run_truncated(probe):
    sim = watched(build_simulation(parse_scenario(logistics_scenario_data())[0],
                                   max_steps=5).simulation, probe)
    sim.run()
    assert sim.truncated
    return sim


def run_raising(probe):
    def handler(kind, payload):
        raise RuntimeError("handler failed")

    sim = Simulation()
    sim.handlers["rules"] = handler
    sim = watched(sim, probe)
    sim.bus.send("process", "rules", "RuleEvalRequest", {"steps": [1, 2]})
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()
    return sim


RUNS = [run_complete, run_truncated, run_raising]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("host_enabled", [True, False])
def test_run_turns_the_collector_off_and_puts_the_hosts_state_back(
        host_collector, run, host_enabled):
    (gc.enable if host_enabled else gc.disable)()
    seen = []
    run(lambda: seen.append(gc.isenabled()))
    assert seen and not any(seen)
    assert gc.isenabled() is host_enabled


@pytest.mark.parametrize("run", RUNS)
def test_run_keeps_the_hosts_frozen_objects_frozen(run):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run(lambda: None)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("run", RUNS)
def test_run_moves_its_trace_payloads_to_the_oldest_generation(host_collector, run):
    # they live as long as the trace: a young pass over them would find nothing.
    # A row's record.payload is built when it is read, so what is checked is
    # what the trace stores: its rows and dicts, and what the rows hold.
    gc.enable()
    sim = run(lambda: None)
    stored = sim.trace_log._payloads
    rows = [payload for payload in stored if payload.__class__ is tuple]
    assert rows
    held = [value for row in rows for value in row[1:]]
    payloads = {id(obj) for obj in stored + held if gc.is_tracked(obj)}
    young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation=generation)}
    assert payloads and not payloads & young


def test_dropped_runs_leave_the_live_object_count_flat():
    # the collector as the host set it: a run's survivors go to the oldest
    # generation, so a dropped assembly must not wait for a full collection
    data = logistics_scenario_data()
    counts = {}
    for round_ in range(1, 31):
        build_simulation(parse_scenario(data)[0]).simulation.run()
        if round_ in (5, 30):
            counts[round_] = len(gc.get_objects())
    assert counts[30] - counts[5] < 1_000, counts


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
