"""Fixtures shared by the socket-level scheduler-service tests."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["unix", "tcp"])
def listen(request, tmp_path):
    """Where the service under test listens: a Unix socket or an ephemeral TCP port."""
    return tmp_path / "serve.sock" if request.param == "unix" else "tcp:127.0.0.1:0"
