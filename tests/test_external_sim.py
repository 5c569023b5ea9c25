import pytest

from ctxflow.sources import (
    MirrorSpec,
    ScriptedSource,
    SourceDescriptor,
    TimelineEntry,
    advance,
    respond_poll,
)


def weather_source():
    return ScriptedSource(
        descriptor=SourceDescriptor(
            source_id="weatherService", mode="poll", reliability=0.9,
            cost_per_value=1.0, poll_interval=8,
            provided_categories=("weather",),
        ),
        timeline=[TimelineEntry(30, "weather", "thunderstorm, road washed out")],
        poll_table={"weather": [(0, "clear"), (30, "thunderstorm, road washed out")]},
    )


def test_advance_emits_due_entries_only():
    source = weather_source()
    events = advance(source, 30)
    assert events == [{
        "source_id": "weatherService",
        "category_id": "weather",
        "payload": "thunderstorm, road washed out",
        "ts": 30,
    }]
    assert advance(source, 29) == []
    assert advance(source, 31) == []


def test_advance_same_tick_entries_keep_order():
    source = ScriptedSource(
        descriptor=SourceDescriptor(
            source_id="s", mode="push", reliability=1.0,
            provided_categories=("a", "b"),
        ),
        timeline=[TimelineEntry(5, "a", 1), TimelineEntry(5, "b", 2)],
    )
    events = advance(source, 5)
    assert [e["category_id"] for e in events] == ["a", "b"]


def test_respond_poll_schedule_and_absence():
    source = weather_source()
    early = respond_poll(source, ["weather"], 0)
    assert early["values"][0]["payload"] == "clear"
    assert early["values"][0]["ts"] == 0
    assert early["values"][0]["reliability"] == 0.9
    late = respond_poll(source, ["weather"], 30)
    assert late["values"][0]["payload"] == "thunderstorm, road washed out"
    other = respond_poll(source, ["traffic"], 0)
    assert other["values"] == []
    assert other["absent"] == ["traffic"]


def test_respond_poll_is_pure():
    source = weather_source()
    assert respond_poll(source, ["weather"], 12) == respond_poll(source, ["weather"], 12)


def test_schedule_change_point_is_exact():
    source = weather_source()
    assert respond_poll(source, ["weather"], 29)["values"][0]["payload"] == "clear"
    assert respond_poll(source, ["weather"], 30)["values"][0]["payload"] \
        == "thunderstorm, road washed out"


def test_timeline_outside_provided_set_rejected():
    with pytest.raises(ValueError):
        ScriptedSource(
            descriptor=SourceDescriptor(
                source_id="s", mode="push", reliability=1.0,
                provided_categories=("a",),
            ),
            timeline=[TimelineEntry(1, "b", 0)],
        )


def test_timeline_must_be_sorted():
    with pytest.raises(ValueError):
        ScriptedSource(
            descriptor=SourceDescriptor(
                source_id="s", mode="push", reliability=1.0,
                provided_categories=("a",),
            ),
            timeline=[TimelineEntry(5, "a", 0), TimelineEntry(1, "a", 1)],
        )


def test_mirror_state_answers_polls():
    source = ScriptedSource(
        descriptor=SourceDescriptor(
            source_id="bpm", mode="push", reliability=1.0,
            provided_categories=("shippingMethod",),
        ),
        mirrors=[MirrorSpec("m", "shipping", "shippingMethod")],
    )
    before = respond_poll(source, ["shippingMethod"], 3)
    assert before["absent"] == ["shippingMethod"]
    after = respond_poll(source, ["shippingMethod"], 4, {"shippingMethod": "truck"})
    assert after["values"][0]["payload"] == "truck"
