"""Span recorder for the traced run: wraps bergec4's public functions from outside.

Each wrapped call appends one span (name, start, end, parent, label) to
compact in-memory arrays. Nothing inside the package is edited: a module
function is rebound on its defining module and on every other ``bergec4``
module that imported it by name, and a method is rebound on its class.
``uninstall`` puts every original back.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (``self_times``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str


TARGETS = (
    Target("cli.main", "bergec4.cli", "main"),
    Target("hypergraph.from_text", "bergec4.hypergraph", "Hypergraph.from_text"),
    Target("hypergraph.to_text", "bergec4.hypergraph", "Hypergraph.to_text"),
    Target("hypergraph.digest", "bergec4.hypergraph", "Hypergraph.digest"),
    Target("hypergraph.shadow", "bergec4.hypergraph", "shadow"),
    Target("hypergraph.pair_to_edges", "bergec4.hypergraph", "pair_to_edges"),
    Target("hypergraph.degree_profile", "bergec4.hypergraph", "degree_profile"),
    Target("berge.find_berge_cycle", "bergec4.berge", "find_berge_cycle"),
    Target("berge.is_bc4_free", "bergec4.berge", "is_bc4_free"),
    Target("berge.try_add", "bergec4.berge", "Bc4FreeBuilder.try_add"),
    Target("berge.pop", "bergec4.berge", "Bc4FreeBuilder.pop"),
    Target("blocks.decompose", "bergec4.blocks", "decompose"),
    Target("census.census", "bergec4.census", "census"),
    Target("bounds.verify_chain", "bergec4.bounds", "verify_chain"),
    Target("construct.projective_plane_incidence", "bergec4.construct", "projective_plane_incidence"),
    Target("construct.is_c4_free", "bergec4.construct", "is_c4_free"),
    Target("construct.expand_to_hypergraph", "bergec4.construct", "expand_to_hypergraph"),
    Target("construct.random_bc4free", "bergec4.construct", "random_bc4free"),
    Target("search.brute_force_ex", "bergec4.search", "brute_force_ex"),
    Target("search.branch_and_bound_ex", "bergec4.search", "branch_and_bound_ex"),
)


class Tracer:
    """Spans of one traced pass, kept in parallel arrays until ``clear``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.label_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._label = -1
        self.counters: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def set_label(self, label: str) -> None:
        """Label every span opened from now on (the command being run)."""
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self._label = self._label_ids[label]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def clear(self) -> None:
        for arr in (self.name_id, self.label_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()
        self.counters.clear()

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, label_id, parent = self.name_id, self.label_id, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            label_id.append(self._label)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    def write_tsv(self, path) -> None:
        """Write the spans as TSV: id, parent, name, label, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tlabel\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                label = self.labels[self.label_id[i]] if self.label_id[i] >= 0 else ""
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t{label}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def self_times(parent, start, end) -> list[float]:
    """Per span: duration minus the union of its children's intervals within it.

    ``parent[i]`` is the index of span i's parent, or -1. Children may
    overlap each other (spans from threads); overlapping parts count once.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per traced name: calls, self_s and total_s (inclusive) over all spans."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in tracer.names}
    for i, nid in enumerate(tracer.name_id):
        row = out[tracer.names[nid]]
        row["calls"] += 1
        row["self_s"] += own[i]
        row["total_s"] += tracer.end[i] - tracer.start[i]
    return out


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) or None when the name is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Installation:
    """Wrappers currently bound in place of the originals; ``uninstall`` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, hooks: dict[str, Callable] | None = None, targets=TARGETS) -> Installation:
    """Wrap every target; names that no longer exist are listed in ``missing``.

    ``hooks`` maps a target name to ``on_result(tracer, result, args, kwargs)``,
    used to record counters such as kept edges or search nodes.
    """
    hooks = hooks or {}
    inst = Installation()
    for target in targets:
        found = _resolve(target)
        if found is None:
            inst.missing.append(target.name)
            continue
        owner, attr, raw = found
        hook = hooks.get(target.name)
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(target.name, raw.__func__, hook))
            else:
                wrapped = tracer.wrap(target.name, raw, hook)
            inst._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(target.name, raw, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bergec4" or mod_name.startswith("bergec4.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    inst._undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
    return inst
