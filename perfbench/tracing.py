"""In-memory span tracer that wraps caloop's public functions from outside.

Nothing in ``src/`` knows about tracing: :meth:`Tracer.install` replaces each
target function with a timing wrapper under every name it is reachable by
(module attributes, re-exports, class attributes and aliases such as
``Polynomial.__radd__``), and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of records are kept:

* spans -- one record per call: (id, name, start, end, parent id, parent
  name, pass id, child time).  Used for coarse calls (CLI commands, catalog entries,
  quotient stages, parser calls).
* aggregates -- for hot leaves (the Z^8 kernel, ``Polynomial`` ring
  operations, ``QuotientLoop.mul``), count, total time and child time per
  (name, parent name), because one pass makes up to ~10^6 such calls.

A call's self time is its duration minus the durations of its direct traced
children.  Calls are synchronous and nested, so children never overlap and
the sum of their durations is exactly the part of the interval they cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Union

# Frame layout on the tracer's stack.
_NAME, _START, _CHILD, _ID = range(4)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a module path, or ``module:Class`` for a method.  ``name`` is
    the span name, or a function of (args, kwargs) returning it.  ``before``
    and ``after`` update the tracer's counters from a call's arguments or
    result.
    """

    owner: str
    attr: str
    name: Union[str, Callable]
    hot: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list = []
        self.spans: list = []
        self.agg: dict = {}
        self.counters: dict = defaultdict(int)
        self.pass_id: Optional[int] = None
        self._next_id = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[_CHILD] += end - start
        self.spans.append((
            span_id, name, start, end,
            parent[_ID] if parent else None, parent[_NAME] if parent else None,
            self.pass_id, child,
        ))

    def _exit_hot(self) -> None:
        end = self.clock()
        name, start, child, _ = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[_CHILD] += duration
        key = (name, parent[_NAME] if parent else None)
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, duration, child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += child

    def wrap(self, fn: Callable, target: Target) -> Callable:
        stack, clock, hot = self.stack, self.clock, target.hot
        close = self._exit_hot if hot else self.exit
        name_of, before, after = target.name, target.before, target.after
        fixed = name_of if isinstance(name_of, str) else None

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            name = fixed or name_of(args, kwargs)
            if hot:
                stack.append([name, clock(), 0.0, None])
            else:
                self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets, package: str = "caloop") -> None:
        """Wrap every target under every name it is bound to in ``package``."""
        targets = list(targets)
        for target in targets:  # import everything first so every alias exists
            importlib.import_module(target.owner.partition(":")[0])
        for target in targets:
            module_name, _, cls_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = inspect.getattr_static(owner, target.attr)
            wrapped = self.wrap(original, target)
            bound = 0
            for holder in _namespaces(package):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)
                        bound += 1
            if not bound:  # pragma: no cover - guards a renamed target
                raise LookupError(f"{target.owner}.{target.attr} is not bound anywhere")

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds] over spans and aggregates."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, _, _, _, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for (name, _), (calls, total, child) in self.agg.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += total - child
        return out

    def calls_under(self, name: str, exclude_parents) -> int:
        """Calls of ``name`` whose direct parent is not in ``exclude_parents``."""
        spans = sum(1 for s in self.spans if s[1] == name and s[5] not in exclude_parents)
        hot = sum(
            calls for (n, parent), (calls, _, _) in self.agg.items()
            if n == name and parent not in exclude_parents
        )
        return spans + hot

    def dump(self, path: str) -> None:
        """Write spans and aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, _, pass_id, child in self.spans:
                fh.write(json.dumps({
                    "span": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "pass": pass_id, "self": end - start - child,
                }) + "\n")
            for (name, parent), (calls, total, child) in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            ):
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "calls": calls,
                    "total": total, "self": total - child,
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")


def _namespaces(package: str):
    """Every module of ``package`` already imported, and the classes they define."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == mod_name:
                yield value
