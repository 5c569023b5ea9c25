"""Scenario generators for the benchmark workloads.

Each generator takes the workload seed and returns a scenario document;
the benchmark writes it to a file and the program only ever loads that
file.  The generators live here, not in ``tests/``, so that editing a test
helper cannot move a workload.
"""

from __future__ import annotations

import random

# enough for the largest rung; a truncated run fails the benchmark
MAX_STEPS = 5_000_000

# Shape of the ROADMAP ladder rung, i.e. what ``random.Random(7)`` draws for
# the draws that set how much work a scenario does.  Those draws are still
# taken from the stream, so seed 7 reproduces the rung exactly, but their
# results are replaced by these values: every seed then polls as often and
# keeps instances alive as long, and only payloads, change ticks, rule
# constants and start offsets vary with the seed.
_RUNG = {
    "schedule_changes": (0, 0, 2, 1, 0, 1),  # per leaf
    "poll_interval": 2,
    "pushes": 3,
    "gates": 1,
    "watched": (1,),  # categories per gate
    "variant_durations": ((2, 1),),  # (a, b) per gate
    "warmup": 3,
    "mid": (6,),  # per gate
    "longhaul": 20,
}


def poll_fanout(seed: int, n_instances: int = 1600) -> dict:
    """The ladder scenario: one poll source refreshing every live model.

    Draw for draw this is the repository's random test scenario with
    ``n_leaves=6``; at seed 7 it is the ladder rung itself.
    """
    rng = random.Random(seed)
    leaves = [f"c{i}" for i in range(6)]
    derived = "d0"
    catalog = [{"id": "root", "kind": "text", "requires_value": False}]
    catalog += [{"id": leaf, "kind": "numeric", "parent": "root"} for leaf in leaves]
    catalog.append({"id": derived, "kind": "numeric", "parent": "root"})

    cause = rng.choice(leaves)
    cause_effects = [{
        "id": "drive",
        "cause": cause,
        "effect": derived,
        "function": {"type": "linear", "a": rng.randint(1, 3), "b": rng.randint(-5, 5)},
    }]

    schedules = {}
    for leaf, changes in zip(leaves, _RUNG["schedule_changes"]):
        steps = [[0, rng.randint(0, 9)]]
        rng.randint(0, 2)
        for tick in sorted(rng.sample(range(5, 40), changes)):
            steps.append([tick, rng.randint(0, 40)])
        schedules[leaf] = steps
    rng.randint(2, 6)
    sources = [{
        "id": "steady",
        "mode": "poll",
        "interval": _RUNG["poll_interval"],
        "reliability": 0.9,
        "provides": leaves,
        "poll": schedules,
    }]
    rng.randint(2, 6)
    pushes = sorted(
        ([rng.randint(4, 30), rng.choice(leaves), rng.randint(0, 40)]
         for _ in range(_RUNG["pushes"])),
        key=lambda entry: entry[0],
    )
    sources.append({
        "id": "bursty",
        "mode": "push",
        "reliability": 0.95,
        "provides": leaves,
        "timeline": pushes,
    })

    rules = []
    gates = []
    rng.randint(1, 2)
    for g in range(_RUNG["gates"]):
        gate_id = f"g{g}"
        rng.randint(1, 2)
        watched = rng.sample(leaves + [derived], _RUNG["watched"][g])
        gate_rules = []
        for i, category in enumerate(watched):
            rule_name = f"r{g}_{i}"
            rules.append(
                f"RULE {rule_name}\nWHEN {category} < {rng.randint(3, 25)}\n"
                f"THEN selectVariant({gate_id}, a)\nEND"
            )
            gate_rules.append(rule_name)
        duration_a, duration_b = _RUNG["variant_durations"][g]
        rng.randint(1, 4)
        rng.randint(1, 4)
        gates.append({
            "type": "gate", "id": gate_id, "default": "b", "rules": gate_rules,
            "variants": {
                "a": [{"type": "task", "name": f"ta{g}", "duration": duration_a}],
                "b": [{"type": "task", "name": f"tb{g}", "duration": duration_b}],
            },
        })

    rng.randint(1, 3)
    nodes = [{"type": "start"},
             {"type": "task", "name": "warmup", "duration": _RUNG["warmup"]}]
    for g, gate in enumerate(gates):
        nodes.append(gate)
        rng.randint(4, 9)
        nodes.append({"type": "task", "name": f"mid{gate['id']}",
                      "duration": _RUNG["mid"][g]})
    rng.randint(15, 30)
    nodes.append({"type": "task", "name": "longhaul", "duration": _RUNG["longhaul"]})
    nodes.append({"type": "end"})

    thresholds = [
        {"category": leaf, "kind": "numeric-delta", "theta": rng.choice([1, 2, 5])}
        for leaf in rng.sample(leaves, 3)
    ]
    thresholds.append({"category": derived, "kind": "numeric-delta", "theta": 1})

    instances = [
        {"id": f"p{i}", "model": "flow", "principal": f"op-{i}",
         "start_tick": i * rng.randint(0, 3)}
        for i in range(n_instances)
    ]

    return {
        "seed": rng.randint(0, 2**31),
        "limits": {"max_steps": MAX_STEPS, "poll_budget": 16},
        "latency": {"default": 1, "jitter": 0},
        "catalog": catalog,
        "masters": [{"model_id": "master",
                     "categories": ["root"] + leaves + [derived]}],
        "cause_effects": cause_effects,
        "sources": sources,
        "rules": rules,
        "process_models": [{"model_id": "flow", "context_master": "master",
                            "nodes": nodes}],
        "thresholds": {"flow": thresholds},
        "instances": instances,
    }


# gate-churn shape.  The seed draws only sensor and alarm values, the phase
# of each sensor's changes and the two cause-effect constants.  Which categories a rule
# reads, how often a sensor changes and how long a variant takes set the
# size of every snapshot, the number of notifications and how long an
# instance lives, so they are fixed: over seeds 101-110 the trace has
# 129,965 to 130,628 records, where drawing them varied it by 12%.
_CHURN = {
    "instances": 200,
    "start_spacing": 1,  # ticks between instance starts: tens live at once
    "poll_interval": 8,
    "change_every": 10,  # ticks between changes of one sensor value
    "gates": 6,
    # alarm category -> (period in ticks, gate holding the rule, action)
    "alarms": {
        "alarm_a": (17, 2, "rollback(g0)"),
        "alarm_b": (23, 4, "rollback(g2)"),
        "fault": (41, 3, "start process.compensation.recover"),
    },
    "alarm_window": 3,  # ticks an alarm stays high before it is reset
}


def gate_churn(seed: int) -> dict:
    """Staggered instances with many gates, re-evaluated on every change.

    Each instance passes six gates whose rules read several categories;
    thresholds are low, so most value changes notify the rules engine and
    re-evaluate the gates already passed.  A monitor source raises alarms
    on a fixed period; rules guarded by ``fresh`` turn a raised alarm into
    a rollback or a compensation for every instance past the alarm's gate.
    The periods, not the seed, set how often that happens, so the amount
    of work is the same for every seed.
    """
    rng = random.Random(seed)
    spec = _CHURN
    n_instances = spec["instances"]
    roots = ["env", "ops", "cargo"]
    catalog, groups, leaves = [], [], []
    for root in roots:
        catalog.append({"id": root, "kind": "text", "requires_value": False})
        for g in range(2):
            group = f"{root}_g{g}"
            groups.append(group)
            catalog.append({"id": group, "kind": "text", "parent": root,
                            "requires_value": False})
            for leaf_index in range(2):
                leaf = f"{group}_{leaf_index}"
                leaves.append(leaf)
                catalog.append({"id": leaf, "kind": "numeric", "parent": group})
    derived = ["risk", "delay"]
    alarms = list(spec["alarms"])
    catalog += [{"id": "risk", "kind": "numeric", "parent": "ops"},
                {"id": "delay", "kind": "numeric", "parent": "cargo"}]
    catalog += [{"id": alarm, "kind": "numeric", "parent": "ops_g0"} for alarm in alarms]
    numeric = leaves + derived

    horizon = n_instances * spec["start_spacing"] + 60
    schedules = {}
    for leaf in leaves:
        steps = [[0, rng.randint(0, 40)]]
        for tick in range(rng.randint(1, spec["change_every"]), horizon, spec["change_every"]):
            steps.append([tick, rng.randint(0, 40)])
        schedules[leaf] = steps
    raised = []
    for alarm, (period, _, _) in spec["alarms"].items():
        for tick in range(period // 2, horizon, period):
            raised.append([tick, alarm, rng.randint(38, 40)])
            raised.append([tick + spec["alarm_window"], alarm, rng.randint(0, 10)])
    raised.sort(key=lambda entry: (entry[0], entry[1]))

    cause_effects = [
        {"id": "toRisk", "cause": leaves[1], "effect": "risk",
         "function": {"type": "linear", "a": 2, "b": rng.randint(-10, 0)}},
        {"id": "toDelay", "cause": leaves[9], "effect": "delay",
         "function": {"type": "linear", "a": 1, "b": rng.randint(0, 5)}},
    ]

    rules, gates = [], []
    for k in range(spec["gates"]):
        gate_id = f"g{k}"
        gate_rules = []
        for alarm, (_, gate_index, action) in spec["alarms"].items():
            if gate_index == k:
                rules.append(
                    f"RULE on_{alarm}\nWHEN fresh({alarm}, 5) AND {alarm} > 35\n"
                    f"THEN {action}\nEND")
                gate_rules.append(f"on_{alarm}")
        # five sensors from at least three groups, a different set per gate
        a, b, c, d, e = (leaves[(k + 5 * j) % len(leaves)] for j in range(5))
        rules.append(
            f"RULE fast{k}\nWHEN {a} < 15 AND {b} >= 20 AND NOT {c} > 34\n"
            f"THEN selectVariant({gate_id}, fast)\nEND")
        rules.append(
            f"RULE safe{k}\nWHEN {a} > 30 OR {d} < 10 OR ({e} > 30 AND {c} > 20)\n"
            f"THEN selectVariant({gate_id}, safe)\nEND")
        gate_rules += [f"fast{k}", f"safe{k}"]
        gates.append({
            "type": "gate", "id": gate_id, "default": "std", "rules": gate_rules,
            "variants": {
                "fast": [{"type": "task", "name": f"fast{k}", "duration": 2}],
                "std": [{"type": "task", "name": f"std{k}", "duration": 2}],
                "safe": [{"type": "task", "name": f"safe{k}", "duration": 2}],
            },
        })
    nodes = [{"type": "start"}, {"type": "task", "name": "intake", "duration": 2}]
    for gate in gates:
        nodes += [gate, {"type": "task", "name": f"work_{gate['id']}", "duration": 2}]
    nodes.append({"type": "end"})

    rules.append(
        f"RULE quick\nWHEN {leaves[5]} < 20\nTHEN selectVariant(r0, quick)\nEND")
    recover = [
        {"type": "start"},
        {"type": "task", "name": "reorder", "duration": 2},
        {"type": "gate", "id": "r0", "default": "slow", "rules": ["quick"],
         "variants": {
             "quick": [{"type": "task", "name": "express", "duration": 2}],
             "slow": [{"type": "task", "name": "freight", "duration": 2}],
         }},
        {"type": "end"},
    ]
    thresholds = [{"category": cat, "kind": "numeric-delta", "theta": 1}
                  for cat in numeric + alarms]

    instances = [
        {"id": f"j{i}", "model": "job", "principal": f"clerk-{i % 7}",
         "start_tick": i * spec["start_spacing"]}
        for i in range(n_instances)
    ]
    return {
        "seed": rng.randint(0, 2**31),
        "limits": {"max_steps": MAX_STEPS, "poll_budget": 16},
        "latency": {"default": 1, "jitter": 0},
        "catalog": catalog,
        "masters": [{"model_id": "plant",
                     "categories": roots + groups + leaves + derived + alarms}],
        "cause_effects": cause_effects,
        "sources": [
            {"id": "sensors", "mode": "poll", "interval": spec["poll_interval"],
             "reliability": 0.9, "provides": leaves, "poll": schedules},
            # polled only to initialise a model; alarms arrive as pushes
            {"id": "monitor", "mode": "poll", "interval": 10 * horizon,
             "reliability": 0.95, "provides": alarms,
             "poll": {alarm: [[0, 0]] for alarm in alarms}, "timeline": raised},
        ],
        "rules": rules,
        "process_models": [
            {"model_id": "job", "context_master": "plant", "nodes": nodes,
             "compensation_refs": {"process.compensation.recover": "recover"}},
            {"model_id": "recover", "context_master": "plant", "nodes": recover},
        ],
        "thresholds": {"job": thresholds, "recover": thresholds},
        "instances": instances,
    }
