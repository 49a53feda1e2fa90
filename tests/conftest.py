"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import random

# Every plan the suites compile runs the PV001-PV013 verifier
# (repro.analysis.verifier); set before any repro import so the gate
# is decided once.  Export REPRO_VERIFY_PLANS=0 to measure the
# unverified baseline.
os.environ.setdefault("REPRO_VERIFY_PLANS", "1")

import pytest
from hypothesis import HealthCheck, settings

from repro.core.terms import Variable
from repro.db.database import Database

# Hypothesis profiles: CI runs with HYPOTHESIS_PROFILE=ci for a
# deterministic (derandomized, no-deadline) run; locally the default
# profile keeps random exploration but still disables deadlines, which
# flake under coverage and slow containers.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


class FsyncSpy:
    """Records, in call order, every ``os.fsync`` and every
    ``os.rename`` / ``os.replace``, each keyed by the inode it touched,
    so a test can check a file's durability steps without a crash."""

    def __init__(self, monkeypatch):
        self.events = []
        fsync = os.fsync

        def spy_fsync(fd):
            self.events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def spy_move(move):
            def wrapper(src, dst, *args, **kwargs):
                self.events.append(("rename", os.stat(src).st_ino))
                move(src, dst, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "rename", spy_move(os.rename))
        monkeypatch.setattr(os, "replace", spy_move(os.replace))

    def directory_syncs(self, directory) -> int:
        return self.events.count(("fsync", os.stat(directory).st_ino))

    def assert_durable(self, path) -> None:
        """``path`` was fsynced, then renamed into place (if it was
        renamed at all), and only then was its directory fsynced."""
        path = pathlib.Path(path)
        synced = ("fsync", path.stat().st_ino)
        moved = ("rename", path.stat().st_ino)
        dir_synced = ("fsync", path.parent.stat().st_ino)
        assert synced in self.events, f"{path.name} was never fsynced"
        after = self.events[self.events.index(synced):]
        if moved in self.events:
            assert moved in after, f"{path.name} renamed before its fsync"
            after = after[after.index(moved):]
        assert dir_synced in after, (
            f"{path.parent.name}/ not fsynced after {path.name}")


@pytest.fixture
def fsync_spy(monkeypatch):
    """An :class:`FsyncSpy` installed for one test."""
    return FsyncSpy(monkeypatch)


@pytest.fixture
def rng():
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def xy():
    """The ubiquitous variables x and y."""
    return Variable("x"), Variable("y")


def db_from(spec: dict) -> Database:
    """Build a database from {"R/arity/key": [rows...]} specs.

    Example: db_from({"R/2/1": [(1, 2), (1, 3)], "S/2/2": [(2, 1)]})
    """
    from repro.core.atoms import RelationSchema

    db = Database()
    for key, rows in spec.items():
        name, arity, k = key.split("/")
        db.add_relation(RelationSchema(name, int(arity), int(k)))
        for row in rows:
            db.add(name, row)
    return db
