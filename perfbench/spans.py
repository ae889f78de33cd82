"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), and its start and end times. Spans are kept in
compact arrays while the workload runs and are only turned into per-function
figures, or written to disk, after it ends.

Wrappers are installed from outside the program: every ``mimobc`` module
attribute that refers to a target function is replaced, so a name imported
with ``from .x import f`` is wrapped where its caller looks it up. Methods are
wrapped on their class. ``Tracer.remove`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

NO_PARENT = -1
PACKAGE = "mimobc"


class Tracer:
    """Records spans and counters for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._seen_errors: dict[str, list[BaseException]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, wrap_args=None):
        """Wrapper recording one span per call of ``fn`` under ``name``.

        ``on_call(tracer, args, kwargs)`` updates counters before the call;
        ``wrap_args(tracer, args, kwargs)`` returns replacement arguments.
        """
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            if wrap_args is not None:
                args, kwargs = wrap_args(self, args, kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc)
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return wrapper

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # an exception is counted once per layer it leaves, however many
        # wrapped calls of that layer it passes through
        seen = self._seen_errors.setdefault(layer, [])
        if not any(e is exc for e in seen):
            seen.append(exc)
            self.errors[layer] += 1

    # --- installing and removing wrappers ----------------------------------

    def install(self, targets) -> list[str]:
        """Wrap each target; returns the names whose function was not found.

        ``targets`` holds ``(name, module, attr, on_call, wrap_args)`` where
        ``attr`` is ``"f"`` for a module function or ``"Class.method"`` for a
        method.
        """
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        missing = []
        for name, module, attr, on_call, wrap_args in targets:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None) if mod else None
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    missing.append(name)
                    continue
                self._patch(cls, meth, original, self.wrap(name, original, on_call, wrap_args))
                continue
            original = getattr(mod, attr, None) if mod else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, on_call, wrap_args)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        return missing

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.span_table(), self.names)

    def save(self, path) -> None:
        """Write the spans (and the name table) to one ``.npz`` file."""
        table = self.span_table()
        np.savez(path, names=np.array(self.names, dtype=str), **table)


def summarize(table: dict[str, np.ndarray], names: list[str]) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``self_s`` and ``total_s`` of a span table.

    Self time is a span's duration minus the durations of its direct
    children. Total time sums whole spans, so it double-counts a name that
    calls itself.
    """
    name, parent = table["name"], table["parent"]
    dur = table["end"] - table["start"]
    has_parent = parent != NO_PARENT
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    total_s = np.bincount(name, weights=dur, minlength=k)
    return {
        n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
        for i, n in enumerate(names)
    }
