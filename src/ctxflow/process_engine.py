"""Process engine: loads models, runs instances, applies decisions.

Instances are small state machines stepped by the simulation loop.  Gate
checkpoints support rollback to the start or to a previously evaluated
gate; break/rollback requests are accepted only from the rules engine
(the choreography enforces the route).  Task "undo" on rollback is
trace-only: simulated tasks have no real side effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# status machine; terminal states have no exits
_TRANSITIONS = {
    "Initializing": {"Running", "Cancelled"},
    "Running": {"AwaitingDecision", "Compensating", "RolledBack", "Completed", "Cancelled"},
    "AwaitingDecision": {"Running", "Compensating", "RolledBack", "Cancelled"},
    "RolledBack": {"Running"},
    "Compensating": {"Running", "AwaitingDecision", "RolledBack", "Cancelled"},
    "Completed": set(),
    "Cancelled": set(),
}

TERMINAL = ("Completed", "Cancelled")


@dataclass(frozen=True)
class StartNode:
    """The first node of a model."""


@dataclass(frozen=True)
class EndNode:
    """Completes the instance, or ends an inlined sub-process."""


@dataclass(frozen=True)
class TaskNode:
    name: str
    duration: int


@dataclass(frozen=True)
class SubprocessNode:
    model_id: str


@dataclass
class GateNode:
    gate_id: str
    variants: dict  # variant_id -> list of nodes, declaration order
    default_variant: str
    rule_ids: list[str] = field(default_factory=list)


@dataclass
class ProcessModel:
    model_id: str
    nodes: list
    compensation_refs: dict[str, str] = field(default_factory=dict)
    execution_time_constraint: int | None = None
    context_master: str | None = None


def walk_nodes(nodes) -> list:
    """Every node of a sequence and of its gates' branches, in declaration order."""
    found, stack = [], nodes[::-1]
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, GateNode):
            for branch in reversed(node.variants.values()):
                stack.extend(branch[::-1])
    return found


@dataclass
class Frame:
    nodes: list
    index: int = 0
    # end nodes inside an inlined sub-process pop the frame; end nodes in
    # gate branches (or at the top level) complete the whole instance
    subprocess: bool = False


@dataclass
class Checkpoint:
    gate_id: str
    cursor: list  # list of (nodes, index) pairs, nodes by reference
    exec_len: int


@dataclass
class ProcessInstance:
    instance_id: str
    model_id: str
    principal: str
    status: str = "Initializing"
    cursor: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    executed: list = field(default_factory=list)  # {"task", "started", "finished"}
    selected_variants: dict = field(default_factory=dict)
    started_tick: int = 0
    epoch: int = 0  # bumped on rollback and at the end; stale task timers are discarded
    comp_children: int = 0


class ProcessEngine:
    POOL = "process"

    def __init__(self, sim, models: dict[str, ProcessModel],
                 deny_principals=(), mirror_emit=None):
        self.sim = sim
        self.models = models
        self.deny_principals = set(deny_principals)
        # (model_id, "decision:<gate>" | "task:<name>") -> [(source id, MirrorSpec)],
        # emitted through the declaring source when the gate's decision lands
        # or when the task completes
        self.mirrors: dict[tuple[str, str], list] = {}
        self.mirror_emit = mirror_emit or (lambda source, category, payload: None)
        self.instances: dict[str, ProcessInstance] = {}
        self.pending_starts = 0

    def register_mirrors(self, source_id: str, mirrors):
        for spec in mirrors:
            # the shape table admits only "decision" and "task:<name>"
            trigger = f"decision:{spec.gate_id}" if spec.trigger == "decision" else spec.trigger
            self.mirrors.setdefault((spec.model_id, trigger), []).append((source_id, spec))

    def _mirror(self, instance: ProcessInstance, trigger: str):
        for source_id, spec in self.mirrors.get((instance.model_id, trigger), ()):
            variant = instance.selected_variants.get(spec.gate_id)
            if variant is not None:
                self.mirror_emit(source_id, spec.category_id, variant)

    # -- lifecycle ------------------------------------------------------------

    def schedule_starts(self, instances: list[dict]):
        """Set each scenario instance's start timer, at its ``start_tick``."""
        self.pending_starts += len(instances)
        for start in instances:
            self.sim.timer(self.POOL, {
                "kind": "start_instance",
                "instance": start["id"],
                "model": start["model"],
                "principal": start["principal"],
                "share_with": start["share_with"],
            }, start["start_tick"])

    def start_instance(self, instance_id: str, model_id: str, principal: str,
                       share_with: str | None = None,
                       copy_from_instance: str | None = None):
        # the policy: any non-empty principal the scenario does not deny
        if not principal or principal in self.deny_principals:
            self.sim.trace(self.POOL, "auth", {
                "instance": instance_id, "principal": principal, "ok": False,
                "detail": (f"principal {principal!r} denied by policy" if principal
                           else "empty principal"),
            })
            return
        self.sim.trace(self.POOL, "auth", {
            "instance": instance_id, "principal": principal, "ok": True,
        })
        instance = ProcessInstance(
            instance_id=instance_id,
            model_id=model_id,
            principal=principal,
            started_tick=self.sim.now,
        )
        instance.cursor = [Frame(self.models[model_id].nodes, 0)]
        self.instances[instance_id] = instance
        payload = {
            "instance": instance_id,
            "model": model_id,
            "principal": principal,
            "tick": self.sim.now,
        }
        if copy_from_instance is not None:
            payload["parent"] = copy_from_instance
        self.sim.trace(self.POOL, "instance_created", payload)
        register = {
            "instance": instance_id,
            "process_model": model_id,
            "principal": principal,
        }
        if share_with is not None:
            register["share_with_instance"] = share_with
        if copy_from_instance is not None:
            register["copy_from_instance"] = copy_from_instance
        self.sim.send(self.POOL, "rules", "Register", register)

    def _set_status(self, instance: ProcessInstance, status: str):
        if status not in _TRANSITIONS[instance.status]:
            raise AssertionError(
                f"illegal status transition {instance.status} -> {status} "
                f"for {instance.instance_id}"
            )
        instance.status = status
        self.sim.trace(self.POOL, "instance_status", {
            "instance": instance.instance_id, "status": status,
        })

    def complete_or_cancel(self, instance: ProcessInstance, outcome: str):
        model = self.models[instance.model_id]
        self._set_status(instance, outcome)
        instance.epoch += 1
        kind = "ProcessCompleted" if outcome == "Completed" else "ProcessCancelled"
        payload = {
            "instance": instance.instance_id,
            "tick": self.sim.now,
            "started": instance.started_tick,
        }
        if model.execution_time_constraint is not None:
            payload["constraint"] = model.execution_time_constraint
        self.sim.send(self.POOL, "rules", kind, payload)

    # -- stepping -------------------------------------------------------------

    def step(self, instance: ProcessInstance):
        """Advance until blocked on a task timer, a gate, or termination."""
        while instance.status == "Running":
            # the top-level sequence holds an end node, so the cursor never empties
            frame = instance.cursor[-1]
            if frame.index >= len(frame.nodes):
                instance.cursor.pop()
                continue
            node = frame.nodes[frame.index]
            if isinstance(node, StartNode):
                frame.index += 1
            elif isinstance(node, EndNode):
                if frame.subprocess:
                    instance.cursor.pop()
                    continue
                self.complete_or_cancel(instance, "Completed")
                return
            elif isinstance(node, TaskNode):
                # step never runs while a task is open
                instance.executed.append({
                    "task": node.name,
                    "started": self.sim.now,
                    "finished": None,
                })
                self.sim.trace(self.POOL, "task_started", {
                    "instance": instance.instance_id,
                    "task": node.name,
                    "duration": node.duration,
                })
                if node.duration > 0:
                    self.sim.timer(self.POOL, {
                        "kind": "task_done",
                        "instance": instance.instance_id,
                        "task": node.name,
                        "epoch": instance.epoch,
                    }, self.sim.now + node.duration)
                    return
                self._finish_task(instance)
            elif isinstance(node, GateNode):
                self._set_status(instance, "AwaitingDecision")
                self.sim.send(self.POOL, "rules", "RuleEvalRequest", {
                    "instance": instance.instance_id,
                    "gate": node.gate_id,
                })
                return
            elif isinstance(node, SubprocessNode):
                # contextualized on a need-to-execute basis: the sub-model
                # runs inline, sharing the parent's context registration
                self.sim.trace(self.POOL, "subprocess_entered", {
                    "instance": instance.instance_id, "model": node.model_id,
                })
                frame.index += 1
                instance.cursor.append(
                    Frame(self.models[node.model_id].nodes, 0, subprocess=True))
            else:
                raise AssertionError(f"unknown node {node!r}")

    def _finish_task(self, instance: ProcessInstance):
        # the open task is the last one executed: a task ends only by its own
        # timer or as a zero-duration pass, and a rollback truncates the list
        entry = instance.executed[-1]
        entry["finished"] = self.sim.now
        self.sim.trace(self.POOL, "task_completed", {
            "instance": instance.instance_id, "task": entry["task"],
        })
        self._mirror(instance, f"task:{entry['task']}")
        instance.cursor[-1].index += 1

    def handle_timer(self, payload: dict):
        if payload.get("kind") == "start_instance":
            self.pending_starts -= 1
            self.start_instance(
                payload["instance"], payload["model"], payload["principal"],
                share_with=payload.get("share_with"),
            )
            return
        instance = self.instances.get(payload["instance"])
        if instance is None or instance.status != "Running":
            return
        # a timer of the current epoch names the open task: a task ends before
        # its timer only by a rollback or by the instance ending, and both
        # bump the epoch
        if payload["epoch"] != instance.epoch:
            return  # task was rolled back while the timer was in flight
        self._finish_task(instance)
        self.step(instance)

    # -- decisions --------------------------------------------------------------

    def handle_decision(self, instance: ProcessInstance, payload: dict):
        action = payload["action"]
        if payload["evaluation"] == "init":
            # an instance's one init Decision, while it initializes
            if action["type"] == "abort":
                self.complete_or_cancel(instance, "Cancelled")
            else:
                self._set_status(instance, "Running")
                self.step(instance)
            return
        # the rules pool sends a gate Decision only to select a variant
        self._apply_select_variant(instance, action)

    def _apply_select_variant(self, instance: ProcessInstance, action: dict):
        gate_id = action["gate"]
        variant_id = action["variant"]
        # while a decision is awaited, the cursor rests on the pending gate
        node = None
        if instance.status == "AwaitingDecision":
            frame = instance.cursor[-1]
            node = frame.nodes[frame.index]
        if node is None or node.gate_id != gate_id:
            self.sim.trace(self.POOL, "unexpected_decision", {
                "instance": instance.instance_id,
                "gate": gate_id,
                "pending": node.gate_id if node else None,
            })
            return
        instance.checkpoints.append(Checkpoint(
            gate_id=gate_id,
            cursor=[(f.nodes, f.index, f.subprocess) for f in instance.cursor],
            exec_len=len(instance.executed),
        ))
        instance.selected_variants[gate_id] = variant_id
        self.sim.trace(self.POOL, "checkpoint", {
            "instance": instance.instance_id,
            "gate": gate_id,
            "variant": variant_id,
            "position": len(instance.checkpoints),
        })
        frame.index += 1
        branch = node.variants[variant_id]
        if branch:
            instance.cursor.append(Frame(branch, 0))
        self._set_status(instance, "Running")
        self._mirror(instance, f"decision:{gate_id}")
        self.step(instance)

    # -- break / rollback ----------------------------------------------------------

    def handle_break_rollback(self, instance: ProcessInstance, payload: dict):
        # "start" is a rollback to an empty checkpoint at the model's first node
        target = payload["target"]
        if target == "start":
            keep, exec_len = 0, 0
            cursor = [(self.models[instance.model_id].nodes, 0, False)]
        else:
            keep = max((i + 1 for i, checkpoint in enumerate(instance.checkpoints)
                        if checkpoint.gate_id == target), default=0)
            if not keep:
                self.sim.trace(self.POOL, "engine_error", {
                    "error": "UnknownCheckpoint",
                    "instance": instance.instance_id,
                    "target": target,
                })
                return
            exec_len = instance.checkpoints[keep - 1].exec_len
            cursor = instance.checkpoints[keep - 1].cursor
        # execution halts; tasks performed after the target are undone in
        # reverse order (trace-only: simulated tasks have no side effects)
        instance.epoch += 1
        for entry in reversed(instance.executed[exec_len:]):
            self.sim.trace(self.POOL, "task_undone", {
                "instance": instance.instance_id,
                "task": entry["task"],
                "started": entry["started"],
                "completed": entry["finished"] is not None,
            })
        del instance.executed[exec_len:]
        instance.cursor = [Frame(nodes, idx, sub) for nodes, idx, sub in cursor]
        del instance.checkpoints[keep:]
        self._set_status(instance, "RolledBack")
        self.sim.trace(self.POOL, "rollback_applied", {
            "instance": instance.instance_id,
            "target": target,
            "checkpoints_kept": keep,
        })
        self._set_status(instance, "Running")
        if payload.get("disposition") == "cancel":
            # the shipment moved to a compensation child; this instance ends
            self.complete_or_cancel(instance, "Cancelled")
        else:
            self.step(instance)

    # -- compensation ------------------------------------------------------------

    def handle_start_compensation(self, parent: ProcessInstance, payload: dict):
        comp_model_id = self.models[parent.model_id].compensation_refs[payload["process_ref"]]
        prior = parent.status
        self._set_status(parent, "Compensating")
        parent.comp_children += 1
        child_id = f"{parent.instance_id}.comp{parent.comp_children}"
        self.start_instance(
            child_id, comp_model_id, parent.principal,
            copy_from_instance=parent.instance_id,
        )
        self._set_status(parent, prior)

    def all_terminal(self) -> bool:
        if self.pending_starts > 0:
            return False
        return all(i.status in TERMINAL for i in self.instances.values())

    # -- dispatch ------------------------------------------------------------------

    def handle_message(self, kind: str, payload: dict):
        instance = self.instances.get(payload["instance"])
        if instance is None or instance.status in TERMINAL:
            self.sim.trace(self.POOL, "decision_dropped", {
                "instance": payload["instance"], "reason": "not live",
            })
            return
        self.HANDLERS[kind](self, instance, payload)

    # exactly the kinds CHANNELS delivers to the process pool
    HANDLERS = {
        "Decision": handle_decision,
        "BreakRollback": handle_break_rollback,
        "StartCompensation": handle_start_compensation,
    }
