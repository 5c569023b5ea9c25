import pytest

from ctxflow.process_engine import (
    EndNode,
    GateNode,
    ProcessEngine,
    ProcessModel,
    StartNode,
    SubprocessNode,
    TaskNode,
)
from ctxflow.sources import MirrorSpec

from .conftest import FakeSim


def delivery_model():
    return ProcessModel(
        model_id="m",
        nodes=[
            StartNode(),
            TaskNode("prepare", 2),
            GateNode(
                gate_id="g",
                variants={
                    "slow": [TaskNode("haul", 3)],
                    "fast": [TaskNode("fly", 1)],
                },
                default_variant="slow",
            ),
            TaskNode("deliver", 1),
            EndNode(),
        ],
        compensation_refs={"redo": "m2"},
        execution_time_constraint=20,
    )


def tiny_model(model_id="m2"):
    return ProcessModel(
        model_id=model_id,
        nodes=[StartNode(), TaskNode("noop", 1), EndNode()],
    )


def make_engine(sim, deny=()):
    models = {"m": delivery_model(), "m2": tiny_model()}
    return ProcessEngine(sim, models, deny_principals=deny)


def drive_timers(engine, sim, until_tick):
    """Fire pending process timers in (tick, insertion) order."""
    while sim.timers:
        due = [t for t in sim.timers if t[2] <= until_tick]
        if not due:
            break
        pool, payload, at = due[0]
        sim.timers.remove(due[0])
        sim.tick = max(sim.tick, at)
        engine.handle_timer(payload)


def open_task(instance):
    """The task whose timer the instance waits on: the last executed, unfinished."""
    entry = instance.executed[-1]
    assert entry["finished"] is None
    return entry["task"]


def awaited_gate(instance):
    """The gate whose decision the instance waits on: the one its cursor rests on."""
    assert instance.status == "AwaitingDecision"
    nodes, index = instance.cursor[-1]
    return nodes[index].gate_id


def started(engine, sim, instance="p1"):
    engine.start_instance(instance, "m", "dispatcher-7")
    engine.handle_message("Decision", {"instance": instance, "evaluation": "init",
                                       "action": {"type": "continue"}})
    return engine.instances[instance]


# --- authentication ---------------------------------------------------------------


def start_by_timer(engine, sim, principal, instance="p1"):
    """Start an instance as a run does: by its start timer."""
    engine.schedule_starts([{"id": instance, "model": "m", "principal": principal,
                             "start_tick": 0, "share_with": None}])
    assert engine.pending_starts == 1
    drive_timers(engine, sim, until_tick=0)
    assert engine.pending_starts == 0


def test_default_policy_accepts_nonempty_principal():
    sim = FakeSim()
    engine = make_engine(sim)
    start_by_timer(engine, sim, "dispatcher-7")
    assert [r.payload for r in sim.records("auth")] == [
        {"instance": "p1", "principal": "dispatcher-7", "ok": True}]
    engine.handle_message("Decision", {"instance": "p1", "evaluation": "init",
                                       "action": {"type": "continue"}})
    assert engine.instances["p1"].status == "Running"


def test_empty_principal_never_starts():
    sim = FakeSim()
    engine = make_engine(sim)
    start_by_timer(engine, sim, "")
    assert "p1" not in engine.instances
    assert [r.payload for r in sim.records("auth")] == [
        {"instance": "p1", "principal": "", "ok": False, "detail": "empty principal"}]


def test_deny_list_policy():
    sim = FakeSim()
    engine = make_engine(sim, deny=["mallory"])
    start_by_timer(engine, sim, "mallory")
    assert "p1" not in engine.instances
    assert [r.payload for r in sim.records("auth")] == [
        {"instance": "p1", "principal": "mallory", "ok": False,
         "detail": "principal 'mallory' denied by policy"}]


# --- stepping ----------------------------------------------------------------------


def test_task_consumes_duration_then_gate_requested():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    assert open_task(instance) == "prepare"
    drive_timers(engine, sim, until_tick=2)
    assert awaited_gate(instance) == "g"
    requests = [p for (_, _, k, p) in sim.sent if k == "RuleEvalRequest"]
    assert requests == [{"instance": "p1", "gate": "g"}]


def test_full_run_to_completion():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "fast"},
    })
    drive_timers(engine, sim, 10)
    assert instance.status == "Completed"
    completed = [p for (_, _, k, p) in sim.sent if k == "ProcessCompleted"]
    assert completed[0]["constraint"] == 20
    assert completed[0]["tick"] <= 20


def test_decision_applies_checkpoint_and_branch():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    assert [c.gate_id for c in instance.checkpoints] == ["g"]
    assert [c.variant for c in instance.checkpoints] == ["slow"]
    assert sim.records("checkpoint")[-1].payload["variant"] == "slow"
    assert open_task(instance) == "haul"


def test_unexpected_decision_traced_not_applied():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    assert [r.payload for r in sim.records("unexpected_decision")] == [
        {"instance": "p1", "gate": "g", "pending": None}]
    assert instance.checkpoints == []


def test_decision_for_another_gate_names_the_awaited_one():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "h", "variant": "slow"},
    })
    assert [r.payload for r in sim.records("unexpected_decision")] == [
        {"instance": "p1", "gate": "h", "pending": "g"}]
    assert awaited_gate(instance) == "g"


def test_subprocess_runs_inline():
    sim = FakeSim()
    model = ProcessModel("m", [
        StartNode(), SubprocessNode("m2"), TaskNode("wrap", 1), EndNode(),
    ])
    engine = ProcessEngine(sim, {"m": model, "m2": tiny_model()})
    engine.start_instance("p1", "m", "u")
    engine.handle_message("Decision", {"instance": "p1", "evaluation": "init",
                                       "action": {"type": "continue"}})
    assert sim.records("subprocess_entered")
    drive_timers(engine, sim, 10)
    assert engine.instances["p1"].status == "Completed"
    tasks = [r.payload["task"] for r in sim.records("task_completed")]
    assert tasks == ["noop", "wrap"]


def inlining_engine(sim, sub_nodes, caller_nodes=None):
    """A caller "m" that runs "sub" inline before its task "wrap", unless
    ``caller_nodes`` says otherwise; p1 is started and running."""
    caller = ProcessModel("m", caller_nodes or [
        StartNode(), SubprocessNode("sub"), TaskNode("wrap", 1), EndNode(),
    ])
    engine = ProcessEngine(sim, {"m": caller, "sub": ProcessModel("sub", sub_nodes)})
    started(engine, sim)
    return engine


def test_end_in_a_branch_of_an_inlined_subprocess_completes_the_instance():
    sim = FakeSim()
    engine = inlining_engine(sim, [
        StartNode(),
        GateNode("g", {"stop": [TaskNode("last", 1), EndNode()],
                       "go": [TaskNode("on", 1)]}, "go"),
        TaskNode("tail", 1),
        EndNode(),
    ])
    instance = engine.instances["p1"]
    assert awaited_gate(instance) == "g"
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "stop"},
    })
    drive_timers(engine, sim, 10)
    assert instance.status == "Completed"
    # neither the sub-process's nor the caller's later nodes run
    assert [r.payload["task"] for r in sim.records("task_started")] == ["last"]
    assert [p["instance"] for (_, _, k, p) in sim.sent if k == "ProcessCompleted"] == ["p1"]


def test_nodes_after_the_first_top_level_end_never_run_inline():
    sim = FakeSim()
    engine = inlining_engine(sim, [
        StartNode(), TaskNode("inner", 1), EndNode(), TaskNode("dead", 1), EndNode(),
    ])
    drive_timers(engine, sim, 10)
    assert engine.instances["p1"].status == "Completed"
    # the caller continues after its subprocess node
    assert [r.payload["task"] for r in sim.records("task_completed")] == ["inner", "wrap"]
    assert [r.payload["model"] for r in sim.records("subprocess_entered")] == ["sub"]


def test_rollback_to_a_gate_inside_an_inlined_subprocess():
    sim = FakeSim()
    engine = inlining_engine(sim, [
        StartNode(),
        GateNode("g", {"a": [TaskNode("ta", 1)], "b": [TaskNode("tb", 1)]}, "a"),
        TaskNode("tail", 1),
        EndNode(),
    ], caller_nodes=[
        StartNode(), TaskNode("prepare", 1), SubprocessNode("sub"), TaskNode("wrap", 1),
        EndNode(),
    ])
    instance = engine.instances["p1"]
    drive_timers(engine, sim, 1)
    assert awaited_gate(instance) == "g"
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "a"},
    })
    drive_timers(engine, sim, 2)
    assert open_task(instance) == "tail"
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "g",
                                            "disposition": "resume"})
    # the tasks since the gate are undone, newest first, and the gate is decided again
    assert [r.payload["task"] for r in sim.records("task_undone")] == ["tail", "ta"]
    assert [e["task"] for e in instance.executed] == ["prepare"]
    assert awaited_gate(instance) == "g"
    assert [p["gate"] for (_, _, k, p) in sim.sent if k == "RuleEvalRequest"] == ["g", "g"]
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "b"},
    })
    drive_timers(engine, sim, 10)
    assert instance.status == "Completed"
    # then the sub-process returns to its caller
    assert [e["task"] for e in instance.executed] == ["prepare", "tb", "tail", "wrap"]
    # the rollback kept g's checkpoint; deciding g again adds another
    assert [(c.gate_id, c.variant) for c in instance.checkpoints] == [("g", "a"), ("g", "b")]


# --- break and rollback ----------------------------------------------------------------


def rolled_instance(sim, engine):
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    return instance


def test_rollback_to_start_recalls_everything():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = rolled_instance(sim, engine)
    sim.tick = 4
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "start",
                                            "disposition": "resume"})
    undone = [r.payload["task"] for r in sim.records("task_undone")]
    assert undone == ["haul", "prepare"]  # reverse execution order
    assert instance.checkpoints == []
    statuses = [r.payload["status"] for r in sim.records("instance_status")]
    assert statuses[-2:] == ["RolledBack", "Running"]
    # execution restarted from the top; only the fresh attempt is on record
    assert [e["task"] for e in instance.executed] == ["prepare"]
    assert open_task(instance) == "prepare"


def test_rollback_to_recent_gate_undoes_suffix_only():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = rolled_instance(sim, engine)
    sim.tick = 4
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "g",
                                            "disposition": "resume"})
    undone = [r.payload["task"] for r in sim.records("task_undone")]
    assert undone == ["haul"]
    assert [c.gate_id for c in instance.checkpoints] == ["g"]
    assert [e["task"] for e in instance.executed] == ["prepare"]
    # the gate is re-reached and re-evaluated natively
    assert awaited_gate(instance) == "g"


def test_rollback_keeps_checkpoint_prefix():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = rolled_instance(sim, engine)
    pre = [c.gate_id for c in instance.checkpoints]
    sim.tick = 4
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "g",
                                            "disposition": "resume"})
    post = [c.gate_id for c in instance.checkpoints]
    assert post == pre[: len(post)]
    assert post and post[-1] == "g"


def test_rollback_to_unknown_gate_is_an_error():
    sim = FakeSim()
    engine = make_engine(sim)
    rolled_instance(sim, engine)
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "nope",
                                            "disposition": "resume"})
    errors = sim.records("engine_error")
    assert errors[-1].payload["error"] == "UnknownCheckpoint"


def test_stale_task_timer_after_rollback_is_discarded():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = rolled_instance(sim, engine)
    stale = [t for t in sim.timers if t[1].get("task") == "haul"]
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "start",
                                            "disposition": "resume"})
    for _, payload, _ in stale:
        engine.handle_timer(payload)
    assert open_task(instance) == "prepare"  # haul completion was ignored


def test_cancel_disposition_ends_instance():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = rolled_instance(sim, engine)
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "start",
                                            "disposition": "cancel"})
    assert instance.status == "Cancelled"
    assert [k for (_, _, k, _) in sim.sent if k == "ProcessCancelled"]


# --- compensation -------------------------------------------------------------------


def test_compensation_spawns_child_with_context_copy():
    sim = FakeSim()
    engine = make_engine(sim)
    parent = rolled_instance(sim, engine)
    sim.sent.clear()
    engine.handle_message("StartCompensation", {"instance": "p1", "process_ref": "redo"})
    child = engine.instances["p1.comp1"]
    assert sim.records("instance_created")[-1].payload["parent"] == "p1"
    assert child.model_id == "m2"
    assert parent.status == "Running"
    registers = [p for (_, _, k, p) in sim.sent if k == "Register"]
    assert registers[0]["copy_from_instance"] == "p1"
    statuses = [r.payload["status"] for r in sim.records("instance_status")
                if r.payload["instance"] == "p1"]
    assert "Compensating" in statuses


def test_compensation_of_compensation_chains():
    sim = FakeSim()
    models = {"m": delivery_model(), "m2": ProcessModel(
        "m2", [StartNode(), TaskNode("slow", 9), EndNode()],
        compensation_refs={"again": "m2"},
    )}
    engine = ProcessEngine(sim, models)
    rolled_instance(sim, engine)
    engine.handle_message("StartCompensation", {"instance": "p1", "process_ref": "redo"})
    engine.handle_message("Decision", {"instance": "p1.comp1", "evaluation": "init",
                                       "action": {"type": "continue"}})
    engine.handle_message("StartCompensation", {"instance": "p1.comp1",
                                                "process_ref": "again"})
    assert "p1.comp1.comp1" in engine.instances
    parents = {r.payload["instance"]: r.payload.get("parent")
               for r in sim.records("instance_created")}
    assert parents["p1.comp1.comp1"] == "p1.comp1"
    chain = 0
    cursor = "p1.comp1.comp1"
    while parents[cursor] is not None:
        chain += 1
        cursor = parents[cursor]
    assert chain == 2


# --- shutdown edge cases ---------------------------------------------------------------


def test_cancel_while_awaiting_discards_pending_gate():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    assert instance.status == "AwaitingDecision"
    engine.complete_or_cancel(instance, "Cancelled")
    assert instance.status == "Cancelled"
    # the gate is no longer awaited: a decision for it finds nothing pending
    engine.handle_decision(instance, {
        "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    assert [r.payload for r in sim.records("unexpected_decision")] == [
        {"instance": "p1", "gate": "g", "pending": None}]
    assert instance.checkpoints == []


def test_late_decision_after_terminal_dropped():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    engine.complete_or_cancel(instance, "Cancelled")
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    assert sim.records("decision_dropped")


NOT_LIVE_MESSAGES = {
    "Decision": {"gate": "g", "evaluation": "native", "fired_rule": "R",
                 "action": {"type": "select_variant", "gate": "g", "variant": "slow"}},
    "BreakRollback": {"target": "start", "disposition": "resume", "fired_rule": "R"},
    "StartCompensation": {"process_ref": "redo", "fired_rule": "R"},
}


@pytest.mark.parametrize("state", ["Completed", "Cancelled", "unknown"])
@pytest.mark.parametrize("kind", sorted(NOT_LIVE_MESSAGES))
def test_message_to_instance_that_is_not_live_is_dropped(kind, state):
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    if state == "unknown":
        instance = "p9"
    else:
        engine.complete_or_cancel(instance, state)
        instance = "p1"
    sim.sent.clear()
    mark = len(sim.trace_log.records)
    engine.handle_message(kind, {"instance": instance, **NOT_LIVE_MESSAGES[kind]})
    assert sim.sent == []
    assert [(r.kind, r.payload) for r in sim.trace_log.records[mark:]] == [
        ("decision_dropped", {"instance": instance, "reason": "not live"})]


def test_zero_duration_task_completes_in_its_tick():
    sim = FakeSim()
    model = ProcessModel("m", [
        StartNode(),
        GateNode("g", {"slow": [TaskNode("haul", 3)], "fast": [TaskNode("fly", 1)]},
                 "slow"),
        TaskNode("stamp", 0),
        TaskNode("deliver", 1),
        EndNode(),
    ])
    mirrored = []
    engine = ProcessEngine(
        sim, {"m": model},
        mirror_emit=lambda source, category, payload: mirrored.append(
            (sim.now, source, category, payload)))
    engine.register_mirrors("bpm", [MirrorSpec("m", "g", "shippingMethod", "task:stamp")])
    instance = started(engine, sim)
    engine.handle_message("Decision", {
        "instance": "p1", "gate": "g", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "fast"},
    })
    drive_timers(engine, sim, 1)
    stamp = [(r.tick, r.kind) for r in sim.trace_log.records
             if r.payload.get("task") == "stamp"]
    assert stamp == [(1, "task_started"), (1, "task_completed")]
    assert mirrored == [(1, "bpm", "shippingMethod", "fast")]
    assert open_task(instance) == "deliver"
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "g",
                                            "disposition": "resume"})
    undone = [(r.payload["task"], r.payload["completed"])
              for r in sim.records("task_undone")]
    assert undone == [("deliver", False), ("stamp", True), ("fly", True)]
