"""Tests for repro.obs.events (run ids, structured payloads)."""

import json
import logging

import pytest

from repro.obs.events import EventLog, current_run_id, new_run_id, push_run_id
from repro.util.logging import JsonFormatter


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def capture():
    handler = _Capture()
    logger = logging.getLogger("repro.obs.events")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    yield handler
    logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestRunIds:
    def test_seeded_ids_are_deterministic_and_hashed(self):
        a = new_run_id("config-blob")
        assert a == new_run_id("config-blob")
        assert a.startswith("run-")
        assert "config" not in a  # hashed, not truncated raw material

    def test_unseeded_ids_are_unique(self):
        assert new_run_id() != new_run_id()

    def test_push_scopes_the_ambient_id(self):
        assert current_run_id() is None
        with push_run_id("run-abc") as rid:
            assert rid == "run-abc"
            assert current_run_id() == "run-abc"
            with push_run_id("run-nested"):
                assert current_run_id() == "run-nested"
            assert current_run_id() == "run-abc"
        assert current_run_id() is None


class TestEventLog:
    def test_instant_payload(self, capture):
        EventLog().instant("thing.happened", size=3)
        (record,) = capture.records
        payload = record.repro_event
        assert payload["type"] == "instant"
        assert payload["name"] == "thing.happened"
        assert payload["size"] == 3
        assert "run_id" not in payload  # none pushed

    def test_run_id_attached_from_context(self, capture):
        with push_run_id("run-xyz"):
            EventLog().instant("correlated")
        assert capture.records[0].repro_event["run_id"] == "run-xyz"

    def test_json_formatter_merges_payload(self, capture):
        with push_run_id("run-fmt"):
            EventLog().instant("jsonable", count=1)
        line = JsonFormatter().format(capture.records[0])
        doc = json.loads(line)
        assert doc["name"] == "jsonable"
        assert doc["count"] == 1
        assert doc["run_id"] == "run-fmt"
        assert doc["logger"] == "repro.obs.events"
