import pytest

from ctxflow.errors import AuthFailed
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


def started(engine, sim, instance="p1"):
    engine.start_instance(instance, "m", "dispatcher-7")
    engine.handle_message("Decision", {"instance": instance, "evaluation": "init",
                                       "action": {"type": "continue"}})
    return engine.instances[instance]


# --- authentication ---------------------------------------------------------------


def test_default_policy_accepts_nonempty_principal():
    sim = FakeSim()
    engine = make_engine(sim)
    assert engine.authenticate("dispatcher-7") == "dispatcher-7"
    auth = started(engine, sim)
    assert sim.records("auth")[0].payload["ok"] is True
    assert auth.status == "Running"


def test_empty_principal_never_starts():
    sim = FakeSim()
    engine = make_engine(sim)
    with pytest.raises(AuthFailed):
        engine.authenticate("")
    engine.start_instance("p1", "m", "")
    assert "p1" not in engine.instances
    assert sim.records("auth")[0].payload["ok"] is False


def test_deny_list_policy():
    sim = FakeSim()
    engine = make_engine(sim, deny=["mallory"])
    engine.start_instance("p1", "m", "mallory")
    assert "p1" not in engine.instances
    record = sim.records("auth")[0].payload
    assert record["ok"] is False and record["principal"] == "mallory"


# --- stepping ----------------------------------------------------------------------


def test_task_consumes_duration_then_gate_requested():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    assert instance.current_task == "prepare"
    drive_timers(engine, sim, until_tick=2)
    assert instance.status == "AwaitingDecision"
    assert instance.pending_gate == "g"
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
    assert instance.checkpoints[0].variant == "slow"
    assert instance.current_task == "haul"


def test_unexpected_decision_traced_not_applied():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "slow"},
    })
    assert sim.records("unexpected_decision")
    assert instance.checkpoints == []


def test_continue_decision_changes_nothing():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    before = (instance.status, instance.current_task)
    engine.handle_message("Decision", {
        "instance": "p1", "evaluation": "re_evaluation",
        "action": {"type": "continue"},
    })
    assert (instance.status, instance.current_task) == before


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
    assert instance.current_task == "prepare"
    assert [e["task"] for e in instance.executed] == ["prepare"]
    assert instance.executed[0]["finished"] is None


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
    assert instance.status == "AwaitingDecision"
    assert instance.pending_gate == "g"


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
    assert instance.current_task == "prepare"  # haul completion was ignored


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
    assert child.parent == "p1"
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
    grandchild = engine.instances["p1.comp1.comp1"]
    assert grandchild.parent == "p1.comp1"
    chain = 0
    cursor = grandchild
    while cursor.parent is not None:
        chain += 1
        cursor = engine.instances[cursor.parent]
    assert chain == 2


def test_unknown_compensation_ref_is_error():
    sim = FakeSim()
    engine = make_engine(sim)
    rolled_instance(sim, engine)
    engine.handle_message("StartCompensation", {"instance": "p1", "process_ref": "nope"})
    assert sim.records("engine_error")[-1].payload["error"] == "UnknownCompensationModel"


# --- shutdown edge cases ---------------------------------------------------------------


def test_cancel_while_awaiting_discards_pending_gate():
    sim = FakeSim()
    engine = make_engine(sim)
    instance = started(engine, sim)
    drive_timers(engine, sim, 2)
    assert instance.status == "AwaitingDecision"
    engine.complete_or_cancel(instance, "Cancelled")
    assert instance.pending_gate is None
    assert instance.status == "Cancelled"


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
        mirror_emit=lambda category, payload: mirrored.append((sim.now, category, payload)))
    engine.register_mirrors([MirrorSpec("m", "g", "shippingMethod", "task:stamp")])
    instance = started(engine, sim)
    engine.handle_message("Decision", {
        "instance": "p1", "gate": "g", "evaluation": "native",
        "action": {"type": "select_variant", "gate": "g", "variant": "fast"},
    })
    drive_timers(engine, sim, 1)
    stamp = [(r.tick, r.kind) for r in sim.trace_log.records
             if r.payload.get("task") == "stamp"]
    assert stamp == [(1, "task_started"), (1, "task_completed")]
    assert mirrored == [(1, "shippingMethod", "fast")]
    assert instance.current_task == "deliver"
    engine.handle_message("BreakRollback", {"instance": "p1", "target": "g",
                                            "disposition": "resume"})
    undone = [(r.payload["task"], r.payload["completed"])
              for r in sim.records("task_undone")]
    assert undone == [("deliver", False), ("stamp", True), ("fly", True)]


def test_unknown_mirror_trigger_is_rejected():
    engine = make_engine(FakeSim())
    with pytest.raises(ValueError, match="unknown mirror trigger"):
        engine.register_mirrors([MirrorSpec("m", "g", "shippingMethod", "decision:g")])
