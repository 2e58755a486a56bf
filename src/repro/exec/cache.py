"""Two-tier memoization of pipeline evaluations.

T-Daub repeatedly fits clones of the same pipeline template on slices of the
same training array: the last fixed-allocation round, the final acceleration
step and the run-to-completion scoring phase all frequently land on the
*identical* ``(pipeline parameters, training slice, test slice, horizon)``
combination.  Because every evaluation starts from an unfitted clone, the
result is a pure function of that combination — so it can be cached, and
(because the fingerprints are content-based, not identity-based) reused by
*other processes and later runs* as well.

This module is the one home of both fingerprints a key is built from:
:func:`estimator_fingerprint` (class plus hyper-parameters) and
:func:`array_fingerprint` (shape, dtype and a BLAKE2 digest of the bytes).
Callers fingerprint each template and slice once and hand the fingerprints
to :meth:`EvaluationCache.make_key`, so two ``numpy`` views with equal
content hit the same entry while any change in data, parameters or horizon
misses.  The cache has two tiers:

- an in-memory front tier (always on), and
- an optional persistent back tier — any :class:`repro.store.StoreBackend`
  (a :class:`~repro.store.LocalFSBackend` over a directory, or an
  :class:`~repro.store.ObjectStoreBackend` for shards with no shared
  filesystem) — consulted on memory misses and written through on every
  insert, so repeated benchmark invocations on the same suites skip
  identical fits entirely.
"""

from __future__ import annotations

import functools
import os
import threading
import types
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from ..store import StoreBackend, array_digest, key_digest, open_store

__all__ = ["EvaluationCache", "CacheStats", "array_fingerprint", "estimator_fingerprint"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache instance, split by tier.

    ``disk_hits`` counts the subset of ``hits`` that were served from the
    persistent tier (and promoted into the memory tier);
    ``memory_hits`` is the remainder.
    """

    hits: int
    misses: int
    size: int
    disk_hits: int = 0

    @property
    def memory_hits(self) -> int:
        """Hits served by the in-memory tier alone."""
        return self.hits - self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def memory_hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.memory_hits / total if total else 0.0

    @property
    def disk_hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.disk_hits / total if total else 0.0


def array_fingerprint(values: np.ndarray) -> tuple:
    """Content fingerprint of an array: shape, dtype and a BLAKE2 digest.

    The digest hashes the bytes in C order, so equal content fingerprints
    equally whatever the memory layout.  Suite manifests name datasets
    with it, and T-Daub keys every slice of a fit on it.
    """
    values = np.asarray(values)
    return ("array", values.shape, values.dtype.str, array_digest(values))


def _instance_fingerprint(value: Any) -> Hashable:
    """Content fingerprint of a plain object: type plus attribute state.

    Used for callable hyper-parameters (callable instances, bound-method
    receivers) where the default ``repr`` would embed a memory address and
    silently defeat cross-run reuse.  Objects without a ``__dict__`` fall
    back to ``repr``.
    """
    try:
        state = vars(value)
    except TypeError:
        return ("repr", repr(value))
    return (
        "instance",
        type(value).__module__,
        type(value).__qualname__,
        tuple(sorted((str(k), _value_fingerprint(v)) for k, v in state.items())),
    )


def _value_fingerprint(value: Any) -> Hashable:
    """Recursively fingerprint a hyper-parameter value."""
    if isinstance(value, np.ndarray):
        return array_fingerprint(value)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_value_fingerprint(item) for item in value))
    if isinstance(value, dict):
        return tuple(sorted((str(k), _value_fingerprint(v)) for k, v in value.items()))
    if hasattr(value, "get_params") and callable(value.get_params):
        return estimator_fingerprint(value)
    if isinstance(value, functools.partial):
        return (
            "partial",
            _value_fingerprint(value.func),
            _value_fingerprint(list(value.args)),
            _value_fingerprint(value.keywords),
        )
    if callable(value):
        # Callable hyper-parameters are fingerprinted by where they are
        # defined — module, qualified name and (for plain functions) the
        # source line, which keeps two lambdas in one expression distinct —
        # so the same function hits across processes and runs.  Bound
        # methods additionally fingerprint the instance they are bound to,
        # keeping two configured callable objects distinct.  Note the
        # *captured state* of a closure is NOT part of the fingerprint:
        # closures over mutable state are uncacheable and two closures over
        # different values of the same variable will collide.  Pass such
        # state as an explicit hyper-parameter instead.
        code = getattr(value, "__code__", None)
        qualname = getattr(value, "__qualname__", None)
        if code is None and qualname is None:
            # A callable *instance* (defines __call__): its identity is its
            # type plus configuration, never its address.
            return ("callable",) + _instance_fingerprint(value)
        fingerprint = (
            "callable",
            getattr(value, "__module__", ""),
            qualname if qualname is not None else repr(value),
            code.co_firstlineno if code is not None else None,
        )
        bound_to = getattr(value, "__self__", None)
        if bound_to is not None:
            if isinstance(bound_to, types.ModuleType):
                # Builtins (e.g. math.sin) are bound to their module.
                fingerprint += (("module", bound_to.__name__),)
            elif hasattr(bound_to, "get_params") and callable(bound_to.get_params):
                fingerprint += (estimator_fingerprint(bound_to),)
            elif isinstance(bound_to, type):
                fingerprint += ((bound_to.__module__, bound_to.__qualname__),)
            else:
                fingerprint += (_instance_fingerprint(bound_to),)
        return fingerprint
    if isinstance(value, (str, int, float, bool, bytes, type(None))):
        return (type(value).__name__, value)
    return ("repr", repr(value))


def estimator_fingerprint(estimator: Any) -> Hashable:
    """Structural fingerprint of an estimator: class plus hyper-parameters.

    Two unfitted clones of the same template fingerprint identically, which
    is exactly the property the cache needs.
    """
    params = estimator.get_params(deep=False)
    return (
        type(estimator).__module__,
        type(estimator).__qualname__,
        tuple((name, _value_fingerprint(params[name])) for name in sorted(params)),
    )


class EvaluationCache:
    """Thread-safe cache of ``(pipeline, data, horizon) -> result``.

    Parameters
    ----------
    store:
        The persistent tier, resolved by :func:`repro.store.open_store`:
        a directory path (a :class:`~repro.store.LocalFSBackend`), an
        ``http://`` store URL or any :class:`~repro.store.StoreBackend`.
        Every insert writes through to it and every memory miss consults
        it, so entries survive the process and can be shared between
        concurrent runs.  ``None`` (default) keeps the cache memory-only.
    """

    def __init__(self, store: "str | os.PathLike | StoreBackend | None" = None):
        self.store = open_store(store)
        self._store: dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    # -- key construction ------------------------------------------------------
    def make_key(
        self,
        template_fp: Hashable,
        train_fp: Hashable,
        test_fp: Hashable,
        horizon: int,
    ) -> Hashable:
        """Build the cache key for one fit-and-score evaluation.

        ``template_fp`` is the template's :func:`estimator_fingerprint` and
        ``train_fp``/``test_fp`` the slices' :func:`array_fingerprint`, so
        the key depends on parameters, bytes and horizon, never on how the
        data travels.  Callers fingerprint once per object they key many
        times.
        """
        return (
            template_fp,
            train_fp,
            test_fp,
            int(horizon),
            # This slot held a custom scorer's fingerprint.  Scorers are
            # gone, but dropping the slot would change every key_digest and
            # make every store written before miss.
            None,
        )

    # -- store operations ------------------------------------------------------
    def get(self, key: Hashable) -> Any | None:
        """Return the cached value for ``key`` or ``None`` on a miss.

        Memory misses fall through to the persistent tier; a disk hit is
        promoted into the memory tier so repeated lookups stay cheap.
        """
        with self._lock:
            if key in self._store:
                self._hits += 1
                return self._store[key]
        if self.store is not None:
            value = self.store.get(key_digest(key))
            if value is not None:
                with self._lock:
                    self._hits += 1
                    self._disk_hits += 1
                    self._store[key] = value
                return value
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: Hashable, value: Any, persist: bool = True) -> None:
        """Insert (or refresh) one entry.

        With a persistent tier attached the value is written through; values
        the store cannot represent stay memory-only.  ``persist=False``
        restricts the entry to the memory tier — for results that are valid
        within this process but must not poison other runs or machines
        sharing the store (e.g. environment-dependent failures).
        """
        with self._lock:
            self._store[key] = value
        if self.store is not None and persist:
            self.store.put(key_digest(key), value)

    def clear(self) -> None:
        """Drop the memory tier and reset counters (persisted records stay)."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0

    def reset_stats(self) -> None:
        """Zero the counters while keeping every cached entry.

        A warm-started ranking adopts its predecessor's cache object; each
        fit resets the counters first so ``cache_stats_`` describes that
        fit alone, not the whole streaming session.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._store),
                disk_hits=self._disk_hits,
            )

    def __repr__(self) -> str:
        stats = self.stats
        tier = f", store={self.store!r}" if self.store is not None else ""
        return (
            f"EvaluationCache(size={stats.size}, hits={stats.hits}, "
            f"misses={stats.misses}, disk_hits={stats.disk_hits}{tier})"
        )
