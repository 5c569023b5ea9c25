"""Context data structures: categories, values, intersections, models.

A context intersection is a leveled DAG of context categories with
timestamped values attached.  The structural rules enforced here:

* levels are pairwise disjoint,
* every edge runs from a strictly lower level to a strictly higher one
  (which forces acyclicity),
* run-time change is extension-only: a later configuration step is always
  a supergraph of the earlier one.

An instance model's intersection grows one configuration step per
extension, from a copy of its start configuration; master models are
immutable templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DeletionRejected,
    EmptyBinding,
    InvalidInput,
    InvalidMaster,
    KindMismatch,
    LevelViolation,
    StaleWrite,
    StepBudgetExceeded,
    UnknownCategory,
)

VALUE_KINDS = ("numeric", "text", "enum", "record")

DEFAULT_HISTORY_LIMIT = 8

# How deep, in arrays and objects, a document may nest where it nests
# without end.  Its process models are such a section: a gate inside a
# gate's variant is three levels deeper, so this admits about 100 nested
# gates, which the scenario walk reads in about 430 frames.  So are the
# payloads it scripts (source timelines and polls, lookup and translate
# values), which the trace writer encodes a few levels below its record.
# Both stay far enough below the interpreter's recursion limit that the
# verdict does not depend on the caller's stack.  Rule conditions have
# their own bound (``rule_dsl.MAX_CONDITION_NESTING``); other values are
# never walked recursively.
MAX_NESTING = 320
CONTAINERS = (dict, list)


def nests_deeper(data, bound: int) -> bool:
    """Whether ``data`` nests arrays and objects more than ``bound`` deep."""
    level, todo = 0, [data] if type(data) in CONTAINERS else []
    while todo:
        level += 1
        if level > bound:
            return True
        todo = [value for container in todo
                for value in (container.values() if type(container) is dict else container)
                if type(value) in CONTAINERS]
    return False


@dataclass(frozen=True)
class ContextCategory:
    """A named dimension of context; node of the intersection DAG."""

    category_id: str
    name: str
    value_kind: str = "text"
    unit: str | None = None

    def __post_init__(self):
        if self.value_kind not in VALUE_KINDS:
            raise ValueError(f"unknown value kind {self.value_kind!r}")

    def accepts(self, payload) -> bool:
        if self.value_kind == "numeric":
            return isinstance(payload, (int, float)) and not isinstance(payload, bool)
        if self.value_kind in ("text", "enum"):
            return isinstance(payload, str)
        return isinstance(payload, dict)


@dataclass(frozen=True)
class ContextValue:
    """One timestamped, sourced, reliability-weighted datum.

    ``value_id`` identifies the update stream the value belongs to (one
    stream per category/source pair); successive values on a stream must
    carry strictly increasing timestamps.  ``causing_ts`` is set on values
    produced by cause-and-effect propagation and names the timestamp of
    the value that triggered the update.
    """

    value_id: str
    category_id: str
    payload: object
    ts: int
    source_id: str
    reliability: float
    cost: float = 0.0
    causing_ts: int | None = None

    def __post_init__(self):
        if self.ts < 0:
            raise ValueError("timestamp must be a non-negative tick")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError("reliability must lie in [0, 1]")
        if self.cost < 0:
            raise ValueError("cost must be non-negative")
        if self.causing_ts is not None and self.causing_ts > self.ts:
            raise ValueError("causing_ts must not exceed ts")

    # Filled on first use by to_payload() and to_reading(), in the instance's
    # own dict; until then these class defaults answer.  (A descriptor or a
    # __getattr__ would run Python code on reads, or stop the interpreter
    # from specializing every attribute read of the class.)
    _payload = None
    _reading = None

    def to_payload(self) -> dict:
        """The whole value as a trace payload, built once and shared by every
        ``value_updated`` record and serialized graph that carries the value:
        never mutate it.  Snapshot replies and notifications carry
        :meth:`to_reading` instead."""
        payload = self._payload
        if payload is None:
            payload = self.__dict__["_payload"] = {
                "value_id": self.value_id,
                "category_id": self.category_id,
                "payload": self.payload,
                "ts": self.ts,
                "source_id": self.source_id,
                "reliability": self.reliability,
                "cost": self.cost,
            }
            if self.causing_ts is not None:
                payload["causing_ts"] = self.causing_ts
        return payload

    def to_reading(self) -> dict:
        """What the rules pool reads of the value, ``{"payload", "ts"}``: built
        once and shared by every snapshot reply and notification that carries
        the value, so never mutate it."""
        reading = self._reading
        if reading is None:
            reading = self.__dict__["_reading"] = {"payload": self.payload, "ts": self.ts}
        return reading


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, subject: str, detail: str):
        self.violations.append(Violation(code, subject, detail))


class ContextIntersection:
    """Leveled DAG of categories plus current values and bounded history.

    Levels are 1-based in the public API to match the usual V_1..V_k
    notation; internally they are list slots.  The owner serializes all
    mutation; other pools read only the payloads it sends, and
    :meth:`clone` and :func:`relevant_subgraph` give independent copies.
    """

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT):
        self.levels: list[list[str]] = []
        self.edges: list[tuple[str, str]] = []
        self.categories: dict[str, ContextCategory] = {}
        self.values: dict[str, ContextValue] = {}
        self.history: dict[str, list[ContextValue]] = {}
        # category -> stream (value_id) -> latest value; feeds conflict resolution
        self.streams: dict[str, dict[str, ContextValue]] = {}
        self.step: int = 0
        self.history_limit = history_limit

    # -- structure ----------------------------------------------------------

    def add_category(self, category: ContextCategory, level: int):
        """Insert a category at the given 1-based level (append-only)."""
        if level < 1:
            raise LevelViolation(f"level must be >= 1, got {level}")
        if category.category_id in self.categories:
            existing = self.level_of(category.category_id)
            if existing != level:
                raise DeletionRejected(
                    f"category {category.category_id!r} already sits at level "
                    f"{existing}; relocation is not an extension"
                )
            return
        while len(self.levels) < level:
            self.levels.append([])
        self.levels[level - 1].append(category.category_id)
        self.categories[category.category_id] = category

    def add_edge(self, from_category: str, to_category: str):
        """Insert an edge; both endpoints must be leveled, strictly downward."""
        for cat in (from_category, to_category):
            if cat not in self.categories:
                raise UnknownCategory(f"edge endpoint {cat!r} is not in the graph")
        if (from_category, to_category) in self.edges:
            return
        if self.level_of(from_category) >= self.level_of(to_category):
            raise LevelViolation(
                f"edge ({from_category!r}, {to_category!r}) does not run "
                "from a strictly lower level to a higher one"
            )
        self.edges.append((from_category, to_category))

    def add_all(self, additions: Additions):
        """Insert an extension's categories, then its edges."""
        for category, level in additions.categories:
            self.add_category(category, level)
        for from_cat, to_cat in additions.edges:
            self.add_edge(from_cat, to_cat)

    def level_of(self, category_id: str) -> int:
        for i, level in enumerate(self.levels):
            if category_id in level:
                return i + 1
        raise UnknownCategory(f"{category_id!r} has no level assignment")

    def category_ids(self) -> list[str]:
        out = []
        for level in self.levels:
            out.extend(level)
        return out

    def clone(self) -> "ContextIntersection":
        other = ContextIntersection(history_limit=self.history_limit)
        other.levels = [list(level) for level in self.levels]
        other.edges = list(self.edges)
        other.categories = dict(self.categories)
        other.values = dict(self.values)
        other.history = {k: list(v) for k, v in self.history.items()}
        other.streams = {cat: dict(s) for cat, s in self.streams.items()}
        other.step = self.step
        return other

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "levels": [sorted(level) for level in self.levels],
            "edges": sorted([list(e) for e in self.edges]),
            "values": {cat: self.values[cat].to_payload() for cat in sorted(self.values)},
            "step": self.step,
        }


@dataclass
class Additions:
    """Extension delta: new categories with target levels, and edges."""

    categories: list[tuple[ContextCategory, int]] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)


def validate_intersection(g: ContextIntersection) -> ValidationReport:
    """Check the structural constraints; violations are data, not errors.

    Zero violations iff levels are pairwise disjoint, every edge runs
    strictly downward in level index, and every category referenced by an
    edge or value carries exactly one level assignment.
    """
    report = ValidationReport()
    seen: dict[str, int] = {}
    for i, level in enumerate(g.levels, start=1):
        for cat in level:
            if cat in seen:
                report.add(
                    "overlapping-levels", cat,
                    f"category appears at level {seen[cat]} and level {i}",
                )
            else:
                seen[cat] = i
    for from_cat, to_cat in g.edges:
        if from_cat not in seen:
            report.add("unleveled-category", from_cat, "edge source has no level")
            continue
        if to_cat not in seen:
            report.add("unleveled-category", to_cat, "edge target has no level")
            continue
        if seen[from_cat] >= seen[to_cat]:
            report.add(
                "edge-level-order", f"{from_cat}->{to_cat}",
                f"edge runs from level {seen[from_cat]} to level {seen[to_cat]}; "
                "edges must descend to a strictly higher level",
            )
    for cat in g.values:
        if cat not in seen:
            report.add("unleveled-category", cat, "valued category has no level")
    return report


def is_subgraph(a: ContextIntersection, b: ContextIntersection) -> bool:
    """True iff every level set of ``a`` is contained in ``b``'s and the
    edge set of ``a`` is contained in ``b``'s."""
    for g, name in ((a, "first"), (b, "second")):
        report = validate_intersection(g)
        if not report.ok:
            raise InvalidInput(f"{name} graph fails validation: {report.violations[0].detail}")
    if len(a.levels) > len(b.levels):
        return False
    for level_a, level_b in zip(a.levels, b.levels):
        if not set(level_a) <= set(level_b):
            return False
    return set(a.edges) <= set(b.edges)


def extend(g: ContextIntersection, additions: Additions,
           k: int | None = None) -> ContextIntersection:
    """Return a copy of ``g`` extended by ``additions`` with step bumped.

    Only additions are allowed: re-adding an existing category at a
    different level or anything implying removal raises DeletionRejected.
    New edges must satisfy the downward-level rule against the
    post-addition levels.  ``k`` bounds the step counter when given.
    """
    new_step = g.step + 1
    if k is not None and new_step > k:
        raise StepBudgetExceeded(
            f"extension to step {new_step} exceeds the budget of {k} configuration steps"
        )
    result = g.clone()
    result.step = new_step
    result.add_all(additions)
    report = validate_intersection(result)
    if not report.ok:
        raise LevelViolation(f"extension breaks structure: {report.violations[0].detail}")
    return result


def update_value(g: ContextIntersection, v: ContextValue) -> ContextIntersection:
    """Replace the current value of ``v``'s category, in place.

    The previous current value moves to the category's history, which keeps
    the last ``history_limit`` of them (none at 0).
    A write on an existing stream with ts not strictly greater than the
    stream's raises StaleWrite and leaves the graph untouched.
    """
    if v.category_id not in g.categories:
        raise UnknownCategory(f"no category {v.category_id!r} in the graph")
    category = g.categories[v.category_id]
    if not category.accepts(v.payload):
        raise KindMismatch(
            f"payload {v.payload!r} does not match kind {category.value_kind!r} "
            f"of category {v.category_id!r}"
        )
    streams = g.streams.get(v.category_id)
    if streams is None:
        streams = g.streams[v.category_id] = {}
    stream_latest = streams.get(v.value_id)
    if stream_latest is not None and v.ts <= stream_latest.ts:
        raise StaleWrite(
            f"stream {v.value_id!r} already holds ts {stream_latest.ts}, "
            f"rejecting ts {v.ts}"
        )
    streams[v.value_id] = v
    if g.history_limit > 0 and v.category_id in g.values:
        bucket = g.history.setdefault(v.category_id, [])
        bucket.append(g.values[v.category_id])
        if len(bucket) > g.history_limit:
            del bucket[: len(bucket) - g.history_limit]
    g.values[v.category_id] = v
    return g


def relevant_subgraph(g: ContextIntersection, categories) -> ContextIntersection:
    """Induced subgraph over the requested categories plus their ancestors.

    The ancestor closure walks reversed edges up to the first level, so a
    requested leaf always arrives with the hierarchy that gives it meaning.
    Current values ride along; history does not.
    """
    requested = list(categories)
    known = set(g.categories)
    for cat in requested:
        if cat not in known:
            raise UnknownCategory(f"no category {cat!r} in the graph")
    parents: dict[str, list[str]] = {}
    for a, b in g.edges:
        parents.setdefault(b, []).append(a)
    closure: set[str] = set()
    frontier = list(requested)
    while frontier:
        cat = frontier.pop()
        if cat in closure:
            continue
        closure.add(cat)
        frontier.extend(parents.get(cat, ()))
    sub = ContextIntersection(history_limit=g.history_limit)
    sub.levels = [[cat for cat in level if cat in closure] for level in g.levels]
    sub.edges = [(a, b) for (a, b) in g.edges if a in closure and b in closure]
    sub.categories = {cat: g.categories[cat] for cat in closure}
    sub.values = {cat: g.values[cat] for cat in g.values if cat in closure}
    sub.step = g.step
    return sub


# --- master / instance models ----------------------------------------------

@dataclass
class MasterContextModel:
    """Template context for a process model; never mutated by instances."""

    model_id: str
    intersection: ContextIntersection
    predefined_categories: list[str] = field(default_factory=list)

    def validate(self) -> ValidationReport:
        report = validate_intersection(self.intersection)
        level_one = set(self.intersection.levels[0]) if self.intersection.levels else set()
        for cat in self.predefined_categories:
            if cat not in level_one:
                report.add(
                    "predefined-outside-first-level", cat,
                    "predefined categories must sit in the first level",
                )
        return report

    def to_payload(self) -> dict:
        payload = self.intersection.to_payload()
        payload["model_id"] = self.model_id
        payload["predefined_categories"] = sorted(self.predefined_categories)
        return payload


@dataclass
class InstanceContextModel:
    """Live, extensible copy of a master bound to one or more instances.

    Each extension replaces ``intersection`` with a supergraph one step
    on; ``k`` bounds the step counter when given.
    """

    model_id: str
    master_id: str
    intersection: ContextIntersection
    bound_instances: list[str]

    def apply_extension(self, additions: Additions,
                        k: int | None = None) -> list[tuple[str, int]]:
        self.intersection = extend(self.intersection, additions, k=k)
        return [(cat.category_id, level) for cat, level in additions.categories]


def instantiate_from_master(master: MasterContextModel, instance_ids,
                            model_id: str | None = None) -> InstanceContextModel:
    """Deep-copy the master into a fresh instance model at step 0.

    Mutating the returned model never touches the master.
    """
    ids = _binding(instance_ids)
    report = master.validate()
    if not report.ok:
        first = report.violations[0]
        raise InvalidMaster(f"master {master.model_id!r}: {first.code} on {first.subject}")
    if model_id is None:
        model_id = f"{master.model_id}.instance.{ids[0]}"
    return _start_model(model_id, master.model_id, master.intersection, ids)


def clone_instance_model(origin: InstanceContextModel, instance_ids,
                         model_id: str) -> InstanceContextModel:
    """New instance model seeded from another model's current intersection.

    Used when a compensation process starts with the same order data: the
    child's start configuration is the parent's current graph, values
    included, and the child evolves independently from step 0.
    """
    return _start_model(model_id, origin.master_id, origin.intersection,
                        _binding(instance_ids))


def _binding(instance_ids) -> list[str]:
    ids = list(instance_ids)
    if not ids:
        raise EmptyBinding("an instance model needs at least one bound process instance")
    return ids


def _start_model(model_id: str, master_id: str, seed: ContextIntersection,
                 ids: list[str]) -> InstanceContextModel:
    """Instance model at step 0 on a copy of ``seed``, its start configuration."""
    graph = seed.clone()
    graph.step = 0
    return InstanceContextModel(
        model_id=model_id,
        master_id=master_id,
        intersection=graph,
        bound_instances=ids,
    )
