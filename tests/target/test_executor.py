"""Worker-count configuration (``REPRO_MAX_WORKERS``)."""

import os

import pytest

from repro.target import Executor, default_workers


class TestDefaultWorkers:
    def test_env_override_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_uncapped(self, monkeypatch):
        # The built-in cap is 8; the override may exceed it.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "32")
        assert default_workers() == 32

    @pytest.mark.parametrize("bad", ["0", "-2", "abc", "1.5", ""])
    def test_env_override_validated(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MAX_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS"):
            default_workers()

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        value = default_workers()
        assert 1 <= value <= 8
        assert value == max(1, min(8, os.cpu_count() or 1))

    def test_executor_picks_up_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert Executor().max_workers == 5
