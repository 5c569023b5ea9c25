"""Cause-and-effect propagation and arrival-order independence.

A weather update recomputes the delivery estimate, which recomputes the
expected fine, all within one ingestion and all stamped with the causing
timestamp.  Whatever order conflicting events arrive in, the final
context state is the same.
"""

import itertools

from ctxflow.context_engine import CatalogEntry, ContextEngine, catalog_additions
from ctxflow.model import ContextCategory, ContextIntersection, MasterContextModel
from ctxflow.propagation import CauseEffectRelation
from ctxflow.sources import SourceDescriptor
from ctxflow.trace import Trace, canonical_json


class ShellSim:
    def __init__(self):
        self.tick = 50
        self.trace_log = Trace()

    @property
    def now(self):
        return self.tick

    def send(self, *args):
        pass

    def timer(self, *args):
        pass

    def trace(self, pool, kind, payload):
        self.trace_log.emit(self.tick, pool, kind, payload)


def fresh_engine():
    catalog = {
        "root": CatalogEntry(ContextCategory("root", "root"), requires_value=False),
        "weather": CatalogEntry(ContextCategory("weather", "weather"), parent="root"),
        "eta": CatalogEntry(ContextCategory("eta", "eta", "numeric"), parent="root"),
        "fine": CatalogEntry(ContextCategory("fine", "fine", "numeric"), parent="root"),
    }
    g = ContextIntersection()
    g.add_all(catalog_additions(catalog, catalog))
    relations = [
        CauseEffectRelation("weatherToEta", "weather", "eta", {
            "type": "lookup",
            "table": {"clear": 40, "thunderstorm": 96},
        }),
        CauseEffectRelation("etaToFine", "eta", "fine",
                            {"type": "linear", "a": 500, "b": -20000}),
    ]
    sources = {
        "certified": SourceDescriptor("certified", "push", 0.9,
                                      provided_categories=("weather",)),
        "social": SourceDescriptor("social", "push", 0.4,
                                   provided_categories=("weather",)),
    }
    engine = ContextEngine(ShellSim(), catalog,
                           {"m": MasterContextModel("m", g, ["root"])},
                           sources, propagation=relations, model_masters={"delivery": "m"})
    # the Register a run's rules pool forwards for an instance of "delivery"
    engine.handle_register({"instance": "p", "process_model": "delivery", "principal": "op"})
    return engine, engine.registrations["p"].model


engine, model = fresh_engine()
engine.handle_source_event({"source_id": "certified", "category_id": "weather",
                            "payload": "clear", "ts": 4})
print("clear skies: eta =", model.intersection.values["eta"].payload,
      "fine =", model.intersection.values["fine"].payload)

engine.handle_source_event({"source_id": "certified", "category_id": "weather",
                            "payload": "thunderstorm", "ts": 30})
eta = model.intersection.values["eta"]
fine = model.intersection.values["fine"]
print(f"storm at tick 30: eta={eta.payload} (causing_ts={eta.causing_ts}), "
      f"fine={fine.payload} (causing_ts={fine.causing_ts})")

# arrival order does not matter: a certified update and a noisy social
# report converge to the same resolved state in every permutation
events = [
    {"source_id": "certified", "category_id": "weather", "payload": "clear", "ts": 4},
    {"source_id": "social", "category_id": "weather", "payload": "thunderstorm", "ts": 9},
    {"source_id": "certified", "category_id": "weather", "payload": "thunderstorm", "ts": 30},
]
states = set()
for order in itertools.permutations(events):
    engine, model = fresh_engine()
    for event in order:
        engine.handle_source_event(dict(event))
    states.add(canonical_json(model.intersection.to_payload()))
print("distinct final states over all 6 arrival orders:", len(states))
