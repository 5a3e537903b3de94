"""Fixtures shared by the test modules."""

import hashlib
import types

import pytest

from drrho import data


@pytest.fixture
def sha256_calls(monkeypatch) -> list:
    """Route ``drrho.data``'s SHA-256 through a counter: one entry per
    dataset content hash computed."""
    calls = []

    def sha256(*args):
        calls.append(1)
        return hashlib.sha256(*args)

    monkeypatch.setattr(data, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls
