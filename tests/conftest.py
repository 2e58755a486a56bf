"""Shared fixtures: deterministic series of the shapes the paper works with,
plus helpers that build cache keys from arrays and count array hashes.

Also a session gate: a ``RuntimeWarning`` issued from ``src/repro`` that
reaches pytest (one no ``filterwarnings`` mark ignores) makes the session
exit non-zero and is named in the summary.  Library code must not warn
and go on; it returns a checked result or raises a typed error.  The
gate does not use ``-W error``, which would turn such a warning inside a
T-Daub cell into a failed cell instead of reporting it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

_LIBRARY = Path(__file__).resolve().parent.parent / "src" / "repro"
_runtime_warnings: list[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/rankings.json from this checkout before comparing",
    )


def pytest_warning_recorded(warning_message, when, nodeid, location):
    path = Path(warning_message.filename).resolve()
    if issubclass(warning_message.category, RuntimeWarning) and path.is_relative_to(_LIBRARY):
        _runtime_warnings.append(
            f"{nodeid or when}: {warning_message.filename}:{warning_message.lineno}: "
            f"{warning_message.category.__name__}: {warning_message.message}"
        )


def pytest_sessionfinish(session, exitstatus):
    if _runtime_warnings and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _runtime_warnings:
        terminalreporter.section("RuntimeWarnings from src/repro", red=True)
        for line in _runtime_warnings:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def seasonal_series() -> np.ndarray:
    """Trending series with a clean 12-sample seasonality (monthly style)."""
    t = np.arange(240, dtype=float)
    noise = np.random.default_rng(0).normal(0.0, 1.0, 240)
    return 100.0 + 0.2 * t + 10.0 * np.sin(2.0 * np.pi * t / 12.0) + noise


@pytest.fixture(scope="session")
def weekly_series() -> np.ndarray:
    """Positive series with a 7-sample seasonality (daily retail style)."""
    t = np.arange(300, dtype=float)
    noise = np.random.default_rng(1).normal(0.0, 2.0, 300)
    return 50.0 + 8.0 * np.sin(2.0 * np.pi * t / 7.0) + noise + 0.05 * t


@pytest.fixture(scope="session")
def random_walk_series() -> np.ndarray:
    """Random walk with drift (finance style)."""
    steps = np.random.default_rng(2).normal(0.05, 1.0, 400)
    return 500.0 + np.cumsum(steps)


@pytest.fixture(scope="session")
def multivariate_series() -> np.ndarray:
    """Three related series: seasonal, anti-phase seasonal and a random walk."""
    t = np.arange(300, dtype=float)
    generator = np.random.default_rng(3)
    first = 80.0 + 0.1 * t + 9.0 * np.sin(2.0 * np.pi * t / 12.0) + generator.normal(0, 1, 300)
    second = 150.0 - 0.05 * t + 12.0 * np.cos(2.0 * np.pi * t / 24.0) + generator.normal(0, 2, 300)
    third = 60.0 + np.cumsum(generator.normal(0.0, 0.8, 300))
    return np.column_stack([first, second, third])


@pytest.fixture(scope="session")
def short_series() -> np.ndarray:
    """A very short series used to exercise fallback paths."""
    return np.array([10.0, 11.0, 12.5, 11.8, 13.0, 12.2, 14.1, 13.5, 15.0, 14.2])


@pytest.fixture(scope="session")
def shared_memory_fork_executor():
    """Fork process executors forced onto the shared-memory data plane.

    ``fork`` workers share the caller's memory, so ``ProcessExecutor``
    gives them no plane and tasks travel by value.  This subclass keeps
    the by-reference path reachable on ``fork`` so determinism suites
    can compare it with the by-value one.  Returns the class; call it
    with ``n_jobs``.
    """
    from repro.exec import ProcessExecutor, SharedMemoryPlane

    class SharedMemoryForkExecutor(ProcessExecutor):
        def __init__(self, n_jobs=None):
            super().__init__(n_jobs, start_method="fork")

        def create_dataplane(self):
            return SharedMemoryPlane()

    return SharedMemoryForkExecutor


@pytest.fixture(scope="session")
def array_key():
    """The cache key of a template on two arrays, fingerprinted first.

    ``EvaluationCache.make_key`` takes fingerprints, which T-Daub computes
    once per fit.  Returns the function; call it with ``(cache, template,
    train, test, horizon)``.
    """
    from repro.exec.cache import array_fingerprint, estimator_fingerprint

    def key(cache, template, train, test, horizon):
        return cache.make_key(
            estimator_fingerprint(template),
            array_fingerprint(train),
            array_fingerprint(test),
            horizon,
        )

    return key


@pytest.fixture()
def hash_count(monkeypatch):
    """Count the BLAKE2 buffer hashes behind every array digest.

    Returns a function giving the number of hashes since the fixture was
    set up; take differences to count one step.
    """
    import repro.store.digest as digest

    calls = 0
    original = digest._hash_buffer

    def counted(values):
        nonlocal calls
        calls += 1
        return original(values)

    monkeypatch.setattr(digest, "_hash_buffer", counted)
    return lambda: calls
