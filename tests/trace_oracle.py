"""An offline trace oracle: invariants every ctxflow trace must satisfy.

``check(records)`` reads a trace as plain records (the dicts its lines
decode to) and returns one line per violated invariant, empty for a good
trace.  It is written from ``docs/formats.md`` ("Trace files") alone and
imports no engine module, so it stays independent of the code whose
traces it checks; the channel table below is its own copy.

This is trace checking in the runtime-verification sense, done offline
over a finished trace.  Each violation starts with the name of the
invariant it breaks:

- ``seq``: ``seq`` counts 0, 1, 2, ... and ``tick`` never falls;
- ``channel``: a message travels on a channel that carries its kind;
- ``latency``: a message is delivered at least one tick after it was sent;
- ``fifo``: on each channel, messages are delivered in send order
  (rising ``msg_seq``);
- ``terminal``: every created instance reaches exactly one terminal
  status, unless the run was truncated (then at most one);
- ``decision``: a ``Decision``, ``BreakRollback`` or ``StartCompensation``
  follows a ``gate_evaluated`` of its instance (and gate) at its send tick;
- ``used``: a ``gate_evaluated`` is written while its instance's reply
  ``ContextSnapshot`` is handled, so the last message delivered before it
  is that reply, and its ``used`` maps exactly the reply's value
  categories to their ``ts``; a gate whose rules read no category is
  evaluated, with ``used`` empty, while its own ``RuleEvalRequest`` is
  handled (after a ``seq`` gap the last message is unknown, and the check
  waits for the next one);
- ``reply``: a reply ``ContextSnapshot`` carries values only for
  categories its ``ContextRequest`` (same ``correlation``) named, and its
  ``missing`` is exactly the named categories it carries no value for,
  sorted (a reply whose request is not in the trace is not checked);
- ``model``: a context model's categories only grow, its records name
  only categories it holds, and after ``model_closed`` no context record
  names it;
- ``stream``: within a (model, stream), the timestamps of the values
  ``value_updated`` reports strictly rise; a record that repeats the
  stream's current value repeats it whole;
- ``binding``: an instance whose process -> rules ``Register`` names
  ``share_with_instance: X`` is bound, when the context pool takes its
  ``Register``, by a ``model_shared`` of the model X is bound to; if X is
  then bound to no model (never bound, or its ``ShutdownModel`` already
  delivered) or had an ``init_timeout``, an ``engine_error``
  ``UnknownSharedModel`` names the instance and a ``model_instantiated``
  of its own follows.  One whose ``Register`` names
  ``copy_from_instance: X`` gets a ``model_instantiated`` whose
  ``copy_of`` is X's model, and one that names neither gets one without
  ``copy_of``.  A ``ContextSnapshot`` or ``ContextNotification`` that names
  a ``model``, delivered while its ``instance`` is bound (its
  ``ShutdownModel`` not yet delivered), names that instance's model.
"""

from __future__ import annotations

CHANNELS = {
    ("process", "rules"): {"Register", "RuleEvalRequest", "ProcessCompleted",
                           "ProcessCancelled"},
    ("rules", "process"): {"Decision", "BreakRollback", "StartCompensation"},
    ("rules", "context"): {"Register", "ContextRequest", "ShutdownModel"},
    ("context", "rules"): {"ContextSnapshot", "ContextNotification"},
    ("context", "external"): {"PollRequest"},
    ("external", "context"): {"SourceEvent", "PollResponse"},
}

MESSAGE_KINDS = set().union(*CHANNELS.values())
TERMINAL = ("Completed", "Cancelled")
GATE_MESSAGES = ("Decision", "BreakRollback", "StartCompensation")


def check(records) -> list[str]:
    """The violated invariants of a trace, one line each; empty if it holds them all."""
    violations: list[str] = []
    last_seq, last_tick = -1, None
    last_msg_seq: dict[tuple[str, str], int] = {}
    terminals: dict[str, int] = {}  # created instance -> terminal statuses seen
    truncated = False
    evaluated_gates: set[tuple[str, str, int]] = set()  # (instance, gate, tick)
    evaluated_rules: set[tuple[str, object, int]] = set()  # (instance, fired_rule, tick)
    live: dict[str, set[str]] = {}  # context model -> its categories
    closed: set[str] = set()
    streams: dict[tuple[str, str], dict] = {}  # (model, stream) -> last reported value
    delivered = ("", {})  # (kind, data) of the last message delivered; None: unknown
    requested: dict[str, dict] = {}  # instance -> its process -> rules Register
    bound: dict[str, str] = {}  # registered instance -> its context model
    failed: set[str] = set()  # instances whose initialization timed out
    expecting: dict[str, list] = {}  # instance -> the (kind, fields) binding records due
    asked: dict[str, list] = {}  # correlation -> the categories its ContextRequest named

    for record in records:
        kind, payload, pool = record["kind"], record["payload"], record["pool"]
        seq, tick = record["seq"], record["tick"]
        where = f"seq {seq} ({kind})"
        if seq != last_seq + 1:
            violations.append(f"seq: {where} follows seq {last_seq}")
            delivered = None
        if last_tick is not None and tick < last_tick:
            violations.append(f"seq: {where} at tick {tick} after tick {last_tick}")
        last_seq, last_tick = seq, tick

        if kind in MESSAGE_KINDS:
            channel = (pool, payload["to"])
            if kind not in CHANNELS.get(channel, ()):
                violations.append(f"channel: {where} on {pool} -> {payload['to']}")
            if tick - payload["sent"] < 1:
                violations.append(f"latency: {where} sent at tick {payload['sent']}, "
                                  f"delivered at tick {tick}")
            if payload["msg_seq"] <= last_msg_seq.get(channel, -1):
                violations.append(f"fifo: {where} (msg_seq {payload['msg_seq']}) delivered "
                                  f"after msg_seq {last_msg_seq[channel]} on "
                                  f"{pool} -> {payload['to']}")
            else:
                last_msg_seq[channel] = payload["msg_seq"]
            delivered = (kind, payload["data"])
            if kind == "Register" and pool == "process":
                requested[payload["data"]["instance"]] = payload["data"]
            elif kind == "Register":
                instance = payload["data"]["instance"]
                expecting[instance] = _binding_records(
                    requested.pop(instance, {}), bound, failed)
            elif kind == "ShutdownModel":
                bound.pop(payload["data"]["instance"], None)
            elif kind == "ContextRequest":
                asked[payload["data"]["correlation"]] = payload["data"]["categories"]
            elif kind in ("ContextSnapshot", "ContextNotification"):
                _check_bound_model(payload["data"], where, bound, violations)
                if payload["data"].get("phase") == "reply":
                    _check_reply(payload["data"], where, asked, violations)
            if kind in GATE_MESSAGES:
                _check_gate_message(kind, payload, where, evaluated_gates,
                                    evaluated_rules, violations)
            continue

        if kind == "run_truncated":
            truncated = True
        elif kind == "instance_created":
            terminals.setdefault(payload["instance"], 0)
        elif kind == "instance_status" and payload["status"] in TERMINAL:
            instance = payload["instance"]
            if instance not in terminals:
                violations.append(f"terminal: {where} ends instance {instance!r}, "
                                  "which was never created")
            else:
                terminals[instance] += 1
        elif kind == "gate_evaluated":
            evaluated_gates.add((payload["instance"], payload["gate"], tick))
            evaluated_rules.add((payload["instance"], payload["fired_rule"], tick))
            if delivered is not None:
                _check_used(payload, where, delivered, violations)
        if pool == "context":
            _check_model_record(kind, payload, where, live, closed, streams, violations)
            _check_binding(kind, payload, where, bound, failed, expecting, violations)

    for instance, count in terminals.items():
        if count > 1 or (count == 0 and not truncated):
            violations.append(f"terminal: instance {instance!r} reached "
                              f"{count} terminal statuses")
    return violations


def _check_gate_message(kind, payload, where, evaluated_gates, evaluated_rules,
                        violations):
    data = payload["data"]
    if kind == "Decision" and data.get("evaluation") == "init":
        return  # the answer to initialization, not to a gate
    instance, sent = data.get("instance"), payload["sent"]
    if kind == "Decision":
        found = (instance, data.get("gate"), sent) in evaluated_gates
    else:
        found = (instance, data.get("fired_rule"), sent) in evaluated_rules
    if not found:
        violations.append(f"decision: {where} for {instance!r} follows no "
                          f"gate_evaluated at its send tick {sent}")


def _check_used(payload, where, delivered, violations):
    instance = payload["instance"]
    kind, data = delivered
    if (kind == "RuleEvalRequest" and payload["used"] == {}
            and data.get("instance") == instance and data.get("gate") == payload["gate"]):
        return  # a gate that reads no context asks for none
    if (kind != "ContextSnapshot" or data.get("phase") != "reply"
            or data.get("instance") != instance):
        violations.append(f"used: {where} for {instance!r} does not follow a reply "
                          "ContextSnapshot of its instance")
        return
    read = {c: value["ts"] for c, value in data.get("graph", {}).get("values", {}).items()}
    if payload["used"] != read:
        violations.append(f"used: {where} for {instance!r} used {payload['used']}, "
                          f"not the {read} of its reply")


def _check_reply(data, where, asked, violations):
    named = asked.pop(data["correlation"], None)
    if named is None:
        return
    values = data["graph"]["values"]
    unasked = sorted(set(values) - set(named))
    if unasked:
        violations.append(f"reply: {where} carries values for {unasked}, which its "
                          f"request {data['correlation']!r} did not name")
    unvalued = sorted(set(named) - set(values))
    if data["missing"] != unvalued:
        violations.append(f"reply: {where} names {data['missing']} missing, not the "
                          f"{unvalued} its request named and it carries no value for")


def _check_model_record(kind, payload, where, live, closed, streams, violations):
    model = payload.get("model")
    for name in (model, payload.get("copy_of")):
        if name in closed:
            violations.append(f"model: {where} names {name!r} after its model_closed")
    if kind == "model_instantiated":
        live[model] = set(payload["categories"])
        return
    categories = live.get(model)
    if categories is None:
        return
    if kind == "model_extended":
        for added in payload["added"]:
            if added["category"] in categories:
                violations.append(f"model: {where} adds {added['category']!r} to "
                                  f"{model!r}, which already holds it")
            categories.add(added["category"])
    elif kind == "model_closed":
        held = {c for level in payload["end"]["levels"] for c in level}
        if held != categories:
            violations.append(f"model: {where} closes {model!r} with categories "
                              f"{sorted(held)}, not the {sorted(categories)} it grew to")
        del live[model]
        closed.add(model)
    elif kind in ("value_updated", "value_rejected"):
        if payload["category"] not in categories:
            violations.append(f"model: {where} writes {payload['category']!r} into "
                              f"{model!r}, which does not hold it")
        if kind == "value_updated":
            value = payload["value"]
            key = (model, value["value_id"])
            last = streams.get(key)
            if last is not None and value["ts"] <= last["ts"] and value != last:
                violations.append(f"stream: {where} reports {value['value_id']!r} of "
                                  f"{model!r} at ts {value['ts']} after ts {last['ts']}")
            streams[key] = value


def _binding_records(request, bound, failed) -> list:
    """The (kind, fields) records that bind a ``Register``'s instance, in order."""
    share, copy = request.get("share_with_instance"), request.get("copy_from_instance")
    if share is not None and share in bound and share not in failed:
        return [("model_shared", {"model": bound[share]})]
    own = ("model_instantiated", {"copy_of": None if copy is None else bound.get(copy)})
    if share is None:
        return [own]
    return [("engine_error", {"error": "UnknownSharedModel", "share_with": share}), own]


def _check_bound_model(data, where, bound, violations):
    instance, model = data.get("instance"), data.get("model")
    if model is not None and instance in bound and model != bound[instance]:
        violations.append(f"binding: {where} for {instance!r} names {model!r}, "
                          f"not its model {bound[instance]!r}")


def _check_binding(kind, payload, where, bound, failed, expecting, violations):
    instance = payload.get("instance")
    if kind == "init_timeout":
        failed.add(instance)
    if kind not in ("model_shared", "model_instantiated", "engine_error"):
        return
    if kind != "engine_error":
        bound[instance] = payload["model"]
    due = expecting.get(instance)
    if not due:
        return
    want, fields = due.pop(0)
    if kind == want and all(payload.get(k) == v for k, v in fields.items()):
        return
    due.clear()
    violations.append(f"binding: {where} for {instance!r} is not the {want} "
                      f"{fields} its Register asks for")
