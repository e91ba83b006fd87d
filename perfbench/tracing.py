"""Span recording for the traced run, and the call-site wrappers that feed it.

The benchmark does not change the program: it rebinds module-level names
and class attributes at the call sites it wants to time, runs an op, and
puts the originals back.  Every wrapped call opens a span under the span
that is open when it starts, so the spans of one op form a tree.

Hot call sites are entered hundreds of thousands of times per op (one
CubeMiner call makes ~485k closure checks), so storing one record per
call would cost ~100 MB per op.  Spans are therefore kept as a calling-
context tree: all calls of one name under one parent share a node that
counts them and sums their durations, and records the start of the first
and the end of the last.  Self time is exact under this aggregation: a
node's self time is its total duration minus its children's totals.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from contextlib import contextmanager
from types import FunctionType

__all__ = ["Span", "Tracer", "Patches", "child_path", "count", "self_time", "total"]


class Span:
    """One node of an op's calling-context tree."""

    __slots__ = (
        "name", "parent", "op_id", "children", "count", "total", "start",
        "end", "nbytes",
    )

    def __init__(self, name: str, parent: "Span | None", op_id: int) -> None:
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.children: dict[str, Span] = {}
        self.count = 0
        self.total = 0.0
        self.start = 0.0
        self.end = 0.0
        self.nbytes = 0

    def child(self, name: str) -> "Span":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Span(name, self, self.op_id)
        return node

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class Tracer:
    """Collects span trees, one per op, in memory until the run ends.

    Only the thread and process that created the tracer record spans:
    forked workers and daemon threads call through the wrappers untimed.
    """

    def __init__(self) -> None:
        self.ops: list[Span] = []
        self.stack: list[Span] = []
        self._thread = threading.get_ident()
        os.register_at_fork(after_in_child=self.stack.clear)

    def _active(self) -> bool:
        return bool(self.stack) and threading.get_ident() == self._thread

    def begin_op(self, name: str) -> Span:
        if self.stack:
            raise RuntimeError("ops do not nest")
        root = Span(name, None, len(self.ops))
        self.ops.append(root)
        self.stack.append(root)
        root.count = 1
        root.start = time.perf_counter()
        return root

    def end_op(self) -> Span:
        root = self.stack.pop()
        root.end = time.perf_counter()
        root.total = root.end - root.start
        if self.stack:
            raise RuntimeError(f"spans left open: {[s.name for s in self.stack]}")
        return root

    def enter(self, name: str) -> "tuple[Span, float] | None":
        if not self._active():
            return None
        node = self.stack[-1].child(name)
        self.stack.append(node)
        start = time.perf_counter()
        if not node.count:
            node.start = start
        return node, start

    def exit(self, token: "tuple[Span, float] | None") -> None:
        if token is None:
            return
        node, start = token
        end = time.perf_counter()
        node.count += 1
        node.total += end - start
        node.end = end
        popped = self.stack.pop()
        if popped is not node:
            raise RuntimeError(f"span {node.name} closed out of order")

    def add_bytes(self, nbytes: int) -> None:
        """Attribute a payload size to the innermost open span."""
        if self._active():
            self.stack[-1].nbytes += nbytes

    @contextmanager
    def step(self, name: str):
        """A named span the benchmark opens around one step of an op."""
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(token)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(token)

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each ``next()`` of a generator, not the consumer's loop body."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                token = enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_(token)
                yield item

        return traced


class Patches:
    """Install wrappers on module attributes and class members; undo them all.

    ``owner`` is a module or a class.  The original descriptor is kept as
    found (``staticmethod``/``classmethod``/function), so restoring puts
    back exactly what was there, including "not defined on this class".
    """

    _MISSING = object()

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, span: str, *, generator: bool = False) -> None:
        raw = inspect.getattr_static(owner, attr)
        own = owner.__dict__.get(attr, self._MISSING)
        wrap = self.tracer.wrap_generator if generator else self.tracer.wrap
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(span, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrap(span, raw.__func__))
        else:
            replacement = wrap(span, raw)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def patch_methods(self, cls: type, prefix: str, names) -> None:
        """Wrap every plain method in ``names`` that ``cls`` has."""
        for name in names:
            raw = inspect.getattr_static(cls, name, None)
            if isinstance(raw, (FunctionType, staticmethod, classmethod)):
                self.patch(cls, name, f"{prefix}{name}")

    def patch_object(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, self._MISSING)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


# ----------------------------------------------------------------------
# Queries over one op's span tree
# ----------------------------------------------------------------------
def spans_named(root: Span, name: str, *, outermost: bool = False):
    """Nodes called ``name``; a name ending in "." matches the prefix.

    ``outermost`` skips nodes whose parent also matches, so nested calls
    inside one layer (a kernel method calling another) count once.
    """
    for node in root.walk():
        if node.name == name or (name.endswith(".") and node.name.startswith(name)):
            if outermost and node.parent is not None and node.parent.name.startswith(
                name
            ):
                continue
            yield node


def total(root: Span, name: str, **kw) -> float:
    return sum(node.total for node in spans_named(root, name, **kw))


def count(root: Span, name: str, **kw) -> int:
    return sum(node.count for node in spans_named(root, name, **kw))


def self_time(root: Span, name: str) -> float:
    return sum(node.self_time for node in spans_named(root, name))


def child_path(root: Span, *names: str) -> Span | None:
    node = root
    for name in names:
        node = node.children.get(name)
        if node is None:
            return None
    return node
