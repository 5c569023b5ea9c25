import json
import random
from importlib import resources

import pytest

from ctxflow.model import (
    Additions,
    ContextCategory,
    ContextIntersection,
    ContextValue,
    MasterContextModel,
)
from ctxflow.trace import Trace


class FakeSim:
    """Stand-in for the bus the pools use, in engine-level unit tests."""

    def __init__(self, now: int = 0):
        self.tick = now
        self.sent = []
        self.timers = []
        self.trace_log = Trace()

    @property
    def now(self):
        return self.tick

    def send(self, sender, receiver, kind, payload):
        self.sent.append((sender, receiver, kind, payload))

    def timer(self, pool, payload, at_tick):
        self.timers.append((pool, payload, at_tick))

    def trace(self, pool, kind, payload):
        self.trace_log.emit(self.tick, pool, kind, payload)

    def sent_kinds(self):
        return [kind for (_, _, kind, _) in self.sent]

    def records(self, kind):
        return self.trace_log.find(kind)


def logistics_scenario_data() -> dict:
    text = resources.files("ctxflow").joinpath("scenarios/logistics.json").read_text()
    return json.loads(text)


def logistics_master() -> MasterContextModel:
    """The logistics master graph: three groupings, six leaf categories."""
    g = ContextIntersection()
    for cat_id, name in (
        ("geospatial", "geospatial"),
        ("roles", "roles"),
        ("processObject", "process object"),
    ):
        g.add_category(ContextCategory(cat_id, name, "text"), 1)
    for cat_id, name, parent in (
        ("traffic", "traffic", "geospatial"),
        ("weather", "weather", "geospatial"),
        ("customer", "customer", "roles"),
        ("freightForwarder", "freight forwarder", "roles"),
        ("orderedItems", "ordered items", "processObject"),
        ("itemDamage", "item damage", "processObject"),
    ):
        g.add_category(ContextCategory(cat_id, name, "text"), 2)
        g.add_edge(parent, cat_id)
    return MasterContextModel(
        model_id="logistics-master",
        intersection=g,
        predefined_categories=["geospatial", "roles", "processObject"],
    )


def methods_extension() -> Additions:
    """The run-time extension: shipping and packaging method under process object."""
    return Additions(
        categories=[
            (ContextCategory("shippingMethod", "shipping method", "text"), 2),
            (ContextCategory("packagingMethod", "packaging method", "text"), 2),
        ],
        edges=[("processObject", "shippingMethod"), ("processObject", "packagingMethod")],
    )


def value(category: str, payload, ts: int, source: str = "src",
          reliability: float = 0.9, stream: str | None = None) -> ContextValue:
    return ContextValue(
        value_id=stream if stream is not None else f"{category}@{source}",
        category_id=category,
        payload=payload,
        ts=ts,
        source_id=source,
        reliability=reliability,
    )


@pytest.fixture
def master():
    return logistics_master()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
