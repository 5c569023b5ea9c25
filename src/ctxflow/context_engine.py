"""Context engine: owns the context cloud and feeds the rules engine.

Ingests pushed and polled source events, resolves multi-source conflicts,
applies what propagation derives from them (``propagation.Propagation``),
and emits threshold-gated change notifications.  One logical writer per
instance model; everything observable happens in message-arrival order.
Every message it takes was built by another pool from a valid document; a
hand-built one outside that contract is a caller error (a ``KeyError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import KindMismatch, StaleWrite, StepBudgetExceeded
from .model import (
    Additions,
    ContextCategory,
    ContextValue,
    InstanceContextModel,
    MasterContextModel,
    clone_instance_model,
    instantiate_from_master,
    # not called here: the benchmark's traced harness (perfbench/probes.py)
    # wraps context_engine.relevant_subgraph by that name
    relevant_subgraph,  # noqa: F401
    update_value,
)
from .propagation import Propagation
from .sources import SourceDescriptor

DEFAULT_POLL_BUDGET = 16


# --- pure operations ---------------------------------------------------------


def resolve_conflict(candidates: list[ContextValue]) -> ContextValue:
    """Deterministic winner among conflicting values for one category.

    Order: reliability (certified sources win), then recency, then source
    id; trailing keys make the order total on arbitrary candidate lists.
    """
    if not candidates:
        raise ValueError("resolve_conflict needs at least one candidate")
    return min(
        candidates,
        key=lambda v: (-v.reliability, -v.ts, v.source_id, v.value_id, repr(v.payload)),
    )


THRESHOLD_KINDS = ("numeric-delta", "any-change")


@dataclass(frozen=True)
class NotificationThreshold:
    category_id: str
    kind: str
    theta: float | None = None
    min_reliability: float = 0.0

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "numeric-delta" and (self.theta is None or self.theta <= 0):
            raise ValueError("numeric-delta thresholds need theta > 0")


def check_threshold(old: ContextValue | None, new: ContextValue,
                    t: NotificationThreshold) -> bool:
    """Gate a change notification.

    True iff the change transgresses the threshold (first-ever values
    always do) and the new value is reliable enough.
    """
    if new.reliability < t.min_reliability:
        return False
    if old is None:
        return True
    if t.kind == "numeric-delta":
        for v in (old, new):
            if not isinstance(v.payload, (int, float)) or isinstance(v.payload, bool):
                raise KindMismatch(
                    f"numeric-delta threshold on non-numeric payload {v.payload!r}"
                )
        return abs(new.payload - old.payload) > t.theta
    return new.payload != old.payload


# --- engine state --------------------------------------------------------------


@dataclass
class CatalogEntry:
    category: ContextCategory
    parent: str | None = None
    requires_value: bool = True


def catalog_chain(catalog: dict[str, CatalogEntry], category: str) -> list[str]:
    """Ancestor chain from the topmost catalogued parent down to ``category``.

    A category's level is its 1-based position in this chain.
    """
    chain = []
    cursor: str | None = category
    while cursor is not None:
        chain.append(cursor)
        cursor = catalog[cursor].parent
    chain.reverse()
    return chain


@dataclass
class Registration:
    instance_id: str
    model: InstanceContextModel
    thresholds: dict[str, NotificationThreshold]
    active: bool = False
    init_rounds: int = 0
    init_outstanding: set = field(default_factory=set)
    failed: bool = False


@dataclass
class PendingRequest:
    correlation: str
    instance_id: str
    requested: list[str]


class ContextEngine:
    """Message-driven owner of the context cloud."""

    POOL = "context"

    def __init__(self, sim, catalog: dict[str, CatalogEntry],
                 masters: dict[str, MasterContextModel],
                 sources: dict[str, SourceDescriptor],
                 propagation=(),  # the nodes, in topological order
                 poll_budget: int = DEFAULT_POLL_BUDGET,
                 max_config_steps: int | None = None,
                 model_masters: dict[str, str] | None = None,
                 model_thresholds: dict[str, dict[str, NotificationThreshold]] | None = None):
        self.sim = sim
        self.catalog = catalog
        self.masters = masters
        self.sources = sources
        # what a Register registers with, by its process model: the master's
        # id, and the thresholds by category
        self.model_masters = model_masters or {}
        self.model_thresholds = model_thresholds or {}
        # category -> the source polled for it: the most reliable that
        # provides it, then the lowest id
        self.best_source: dict[str, str] = {}
        for source in sorted(sources.values(), key=lambda s: (-s.reliability, s.source_id)):
            for category in source.provided_categories:
                self.best_source.setdefault(category, source.source_id)
        self.propagation = Propagation(propagation)
        self.poll_budget = poll_budget
        self.max_config_steps = max_config_steps
        self.instances: dict[str, InstanceContextModel] = {}
        self.registrations: dict[str, Registration] = {}
        # model id -> (the categories whose administered fetch is in flight,
        # the model's unanswered requests, oldest first)
        self.pending_fetches: dict[str, tuple[set[str], list[PendingRequest]]] = {}

    # -- registration / initialization ---------------------------------------

    def handle_register(self, payload: dict):
        """Register an instance with its process model's master and thresholds."""
        instance = payload["instance"]
        process_model = payload["process_model"]
        # the two names are instances; a share target without a live
        # registration is reported, and the sharer gets a model of its own
        share_with = payload.get("share_with_instance")
        copy_from = payload.get("copy_from_instance")
        target = None if share_with is None else self.registrations.get(share_with)
        if target is not None and not target.failed:
            model = target.model
            model.bound_instances.append(instance)
            self.sim.trace(self.POOL, "model_shared", {
                "model": model.model_id,
                "instance": instance,
                "bound": sorted(model.bound_instances),
            })
        else:
            if share_with is not None:
                self.sim.trace(self.POOL, "engine_error", {
                    "error": "UnknownSharedModel",
                    "instance": instance,
                    "share_with": share_with,
                })
            model_id = f"ctx.{instance}"
            if copy_from is not None:  # the parent: live while it compensates
                parent = self.registrations[copy_from].model
                model = clone_instance_model(parent, [instance], model_id)
                origin = {"master": model.master_id, "copy_of": parent.model_id}
            else:
                master_id = self.model_masters[process_model]
                model = instantiate_from_master(self.masters[master_id], [instance],
                                                model_id)
                model.intersection.history_limit = self.propagation.history
                origin = {"master": master_id}
            self.instances[model_id] = model
            self.pending_fetches[model_id] = (set(), [])
            self.sim.trace(self.POOL, "model_instantiated", {
                "model": model_id,
                **origin,
                "instance": instance,
                "categories": sorted(model.intersection.category_ids()),
            })
        self.registrations[instance] = Registration(
            instance_id=instance,
            model=model,
            thresholds=self.model_thresholds.get(process_model, {}),
        )
        self._continue_initialization(instance)

    def _unvalued_requirements(self, model: InstanceContextModel) -> list[str]:
        g = model.intersection
        return [cat for cat in g.category_ids()
                if self.catalog[cat].requires_value and cat not in g.values]

    def _continue_initialization(self, instance_id: str):
        reg = self.registrations.get(instance_id)
        if reg is None or reg.active or reg.failed:
            return
        model = reg.model
        # the model's registrations still initializing, in binding order: the
        # first polls, and the others end their initialization with it
        bound = [self.registrations[i] for i in model.bound_instances]
        waiting = [each for each in bound if not (each.active or each.failed)]
        if waiting[0] is not reg:
            return
        missing = self._unvalued_requirements(model)
        if not missing:
            for each in waiting:
                self._finish_initialization(each, model)
            return
        if reg.init_outstanding:
            return  # waiting on poll responses
        if reg.init_rounds >= self.poll_budget:
            for each in waiting:
                each.failed = True
                self.sim.trace(self.POOL, "init_timeout", {
                    "instance": each.instance_id,
                    "model": model.model_id,
                    "rounds": reg.init_rounds,
                    "unvalued": sorted(missing),
                })
                self.sim.send(self.POOL, "rules", "ContextSnapshot", {
                    "instance": each.instance_id, "model": model.model_id,
                    "phase": "init", "status": "timeout",
                    "unvalued": sorted(missing),
                })
            return
        reg.init_rounds += 1
        by_source: dict[str, list[str]] = {}
        for cat in missing:
            source = self.best_source.get(cat)
            if source is not None:
                by_source.setdefault(source, []).append(cat)
        for source_id, cats in by_source.items():
            reg.init_outstanding.add(source_id)
            self.sim.send(self.POOL, "external", "PollRequest", {
                "source": source_id,
                "categories": sorted(cats),
                "purpose": "init",
                "instance": instance_id,
                "model": model.model_id,
            })
        if not by_source:
            # nothing pollable; burn a round per tick until budget or propagation fills it
            self.sim.timer(self.POOL, {"kind": "init_round", "instance": instance_id},
                           self.sim.now + 1)

    def _finish_initialization(self, reg: Registration, model: InstanceContextModel):
        reg.active = True
        # the whole graph: the instance's start configuration
        self.sim.send(self.POOL, "rules", "ContextSnapshot", self._snapshot_payload(
            model, model.intersection.to_payload(), instance=reg.instance_id, phase="init"))

    # -- ingestion -------------------------------------------------------------

    def handle_source_event(self, payload: dict):
        # a source pushes, and mirrors into, only categories it provides
        source_id = payload["source_id"]
        category = payload["category_id"]
        descriptor = self.sources[source_id]
        value = ContextValue(
            value_id=f"{category}@{source_id}",
            category_id=category,
            payload=payload["payload"],
            ts=payload["ts"],
            source_id=source_id,
            reliability=descriptor.reliability,
            cost=descriptor.cost_per_value,
        )
        for model in list(self.instances.values()):
            if (category in model.intersection.categories
                    or category in self._administer_extension(model, [category])):
                self._ingest(model, [value])

    def handle_poll_response(self, payload: dict):
        source_id = payload["source"]
        values = [
            ContextValue(
                value_id=f"{item['category_id']}@{source_id}",
                category_id=item["category_id"],
                payload=item["payload"],
                ts=item["ts"],
                source_id=source_id,
                reliability=item["reliability"],
                cost=item["cost"],
            )
            for item in payload["values"]
        ]
        purpose = payload["purpose"]
        if purpose == "refresh":
            for model in list(self.instances.values()):
                relevant = [v for v in values if v.category_id in model.intersection.categories]
                if relevant:
                    self._ingest(model, relevant)
            return
        model = self.instances.get(payload["model"])
        if model is None:
            return  # model shut down while the poll was in flight
        self._ingest(model, values)
        if purpose == "init":
            reg = self.registrations.get(payload["instance"])
            if reg is not None:
                reg.init_outstanding.discard(source_id)
                self._continue_initialization(reg.instance_id)
        elif purpose == "administer":
            fetching, _ = self.pending_fetches[model.model_id]
            fetching.difference_update([v.category_id for v in values] + payload["absent"])
            self._reply_ready(model)

    def handle_timer(self, payload: dict):
        kind = payload.get("kind")
        if kind == "init_round":
            self._continue_initialization(payload["instance"])
        elif kind == "poll":
            self._scheduled_poll(payload["source"])

    def schedule_polls(self):
        """Set each poll source's first refresh poll, at its poll interval."""
        for source_id, descriptor in self.sources.items():
            if descriptor.mode == "poll":
                self.sim.timer(self.POOL, {"kind": "poll", "source": source_id},
                               descriptor.poll_interval)

    def _scheduled_poll(self, source_id: str):
        descriptor = self.sources[source_id]  # a poll source: schedule_polls set the timer
        wanted = []
        for category in descriptor.provided_categories:
            for model in self.instances.values():
                if category in model.intersection.categories:
                    wanted.append(category)
                    break
        if wanted:
            self.sim.send(self.POOL, "external", "PollRequest", {
                "source": source_id,
                "categories": sorted(wanted),
                "purpose": "refresh",
            })
        self.sim.timer(self.POOL, {"kind": "poll", "source": source_id},
                       self.sim.now + descriptor.poll_interval)

    def _ingest(self, model: InstanceContextModel, values: list[ContextValue]):
        """Apply values, propagate to quiescence and notify the rules engine.

        The rules engine hears of every category whose current value changed
        identity, as a pre-batch vs post-quiescence pair.  Propagation is
        keyed on identity so the derived state always mirrors whatever
        conflict resolution made current, regardless of arrival order.
        """
        changed: dict[str, tuple[ContextValue | None, ContextValue]] = {}
        for value in values:
            self._apply_value(model, value, changed)
        for node, produced, fault in self.propagation.run(model.intersection, changed):
            if fault is not None:
                self.sim.trace(self.POOL, "engine_error", {
                    "error": type(fault).__name__, "detail": str(fault),
                    "model": model.model_id, "relation": node.node_id})
            for value in produced:
                self._apply_value(model, value, changed)
        self._notify(model, changed)

    def _apply_value(self, model: InstanceContextModel, value: ContextValue,
                     changed: dict):
        g = model.intersection
        category = value.category_id
        if category not in g.categories:
            return
        entry = changed.get(category)
        old = g.values.get(category) if entry is None else entry[0]
        try:
            update_value(g, value)
        except StaleWrite:
            self.sim.trace(self.POOL, "value_rejected", {
                "model": model.model_id,
                "category": category,
                "stream": value.value_id,
                "ts": value.ts,
                "reason": "stale",
            })
            return
        except KindMismatch as err:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "KindMismatch", "detail": str(err),
                "model": model.model_id,
            })
            return
        # Values are compared by identity: a stream's timestamps strictly
        # rise, so two distinct values held by one model are never equal.
        streams = g.streams[category]
        current = value
        if len(streams) > 1:
            current = resolve_conflict(list(streams.values()))
            if current is not value:
                g.values[category] = current
        self.sim.trace(self.POOL, "value_updated", {
            "model": model.model_id,
            "category": category,
            "value": current.to_payload(),
        })
        if current is old:
            changed.pop(category, None)  # batch restored the old value
        else:
            changed[category] = (old, current)

    # -- notifications ----------------------------------------------------------

    def _notify(self, model: InstanceContextModel, changed: dict):
        if not changed:
            return
        for instance_id in model.bound_instances:
            reg = self.registrations[instance_id]
            if not reg.active:
                continue
            changes = []
            for category, (old, new) in changed.items():
                threshold = reg.thresholds.get(category)
                if threshold is None:
                    continue
                if old is not None and new.payload == old.payload:
                    continue  # batch reverted the payload; no net change
                # a numeric-delta threshold sits on a numeric category
                if check_threshold(old, new, threshold):
                    changes.append({"category": category, "value": new.to_reading()})
            if changes:
                self.sim.send(self.POOL, "rules", "ContextNotification", {
                    "model": model.model_id,
                    "instance": reg.instance_id,
                    "step": model.intersection.step,
                    "changes": changes,
                })

    # -- read path / administration ----------------------------------------------

    def handle_context_request(self, payload: dict):
        instance = payload["instance"]
        # the rules pool asks only while the instance is bound, so registered
        model = self.registrations[instance].model
        requested = list(payload["categories"])
        extendable = []
        for category in requested:  # catalogued, each once
            if category in model.intersection.categories:
                continue
            if category not in self.best_source:
                self.sim.trace(self.POOL, "admin_no_source", {
                    "model": model.model_id, "category": category,
                })
                continue
            extendable.append(category)
        fetching, waiting = self.pending_fetches[model.model_id]
        if extendable:
            added = self._administer_extension(model, extendable)
            for category in extendable:  # in the request's order, not added's
                if category in added:
                    fetching.add(category)
                    self.sim.send(self.POOL, "external", "PollRequest", {
                        "source": self.best_source[category],
                        "categories": [category],
                        "purpose": "administer",
                        "model": model.model_id,
                    })
        waiting.append(PendingRequest(payload["correlation"], instance, requested))
        self._reply_ready(model)

    def _administer_extension(self, model: InstanceContextModel,
                              categories: list[str]) -> set[str]:
        """Extend a model with catalogued categories it lacks; one step per call."""
        additions = Additions()
        queued: set[str] = set()
        for category in categories:
            chain = catalog_chain(self.catalog, category)
            for level, ancestor in enumerate(chain, start=1):
                if ancestor in model.intersection.categories or ancestor in queued:
                    continue
                queued.add(ancestor)
                anc_entry = self.catalog[ancestor]
                additions.categories.append((anc_entry.category, level))
                if anc_entry.parent is not None:
                    additions.edges.append((anc_entry.parent, ancestor))
        try:
            added = model.apply_extension(additions, k=self.max_config_steps)
        except StepBudgetExceeded as err:  # levels and edges follow the catalog
            self.sim.trace(self.POOL, "extension_rejected", {
                "model": model.model_id,
                "categories": [c.category_id for c, _ in additions.categories],
                "error": type(err).__name__,
                "detail": str(err),
            })
            return set()
        self.sim.trace(self.POOL, "model_extended", {
            "model": model.model_id,
            "step": model.intersection.step,
            "added": [{"category": cat, "level": level} for cat, level in added],
        })
        return {cat for cat, _ in added}

    def _reply_ready(self, model: InstanceContextModel):
        """Answer, oldest first, each waiting request whose every named category
        holds a value or has no fetch in flight, from the model as it stands:
        the requested categories that have a value, and the others as ``missing``."""
        fetching, waiting = self.pending_fetches[model.model_id]
        g = model.intersection
        still_waiting = []
        for pending in waiting:
            if any(c in fetching and c not in g.values for c in pending.requested):
                still_waiting.append(pending)
                continue
            values = {c: g.values[c].to_reading() for c in pending.requested if c in g.values}
            self.sim.send(self.POOL, "rules", "ContextSnapshot", self._snapshot_payload(
                model, {"values": values, "step": g.step}, correlation=pending.correlation,
                instance=pending.instance_id, phase="reply",
                missing=sorted(c for c in pending.requested if c not in values)))
        waiting[:] = still_waiting

    def _snapshot_payload(self, model: InstanceContextModel, graph: dict,
                          **fields) -> dict:
        """An ``ok`` ContextSnapshot of ``model`` carrying ``graph`` and ``fields``."""
        return {"model": model.model_id, "graph": graph, "now": self.sim.now,
                "status": "ok", **fields}

    # -- shutdown ------------------------------------------------------------------

    def handle_shutdown_model(self, payload: dict):
        # a ShutdownModel follows its instance's Register on one FIFO channel
        instance_id = payload["instance"]
        model = self.registrations.pop(instance_id).model
        model.bound_instances.remove(instance_id)
        if not model.bound_instances:
            del self.instances[model.model_id]
            # requests waiting on the model's fetches are never answered
            del self.pending_fetches[model.model_id]
            self.sim.trace(self.POOL, "model_closed", {
                "model": model.model_id,
                "end_step": model.intersection.step,
                "end": model.intersection.to_payload(),
            })

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, kind: str, payload: dict):
        self.HANDLERS[kind](self, payload)

    # exactly the kinds CHANNELS delivers to the context pool
    HANDLERS = {
        "Register": handle_register,
        "SourceEvent": handle_source_event,
        "PollResponse": handle_poll_response,
        "ContextRequest": handle_context_request,
        "ShutdownModel": handle_shutdown_model,
    }
