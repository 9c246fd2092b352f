"""In-memory span recorder that wraps tlammcox functions from outside the
package.

The package resolves its collaborators at call time: `_lamm_loop` finds
`line_search` through module globals, `tlamm` finds `stage1_lasso` and
`stage2` the same way, the solver reaches `CoxObjective.nll` through the
instance, and the CLI dispatches through its `COMMANDS` table. Replacing
those attributes with timing wrappers therefore traces every call without
touching the package source. Every binding of a wrapped function (the
defining module, modules that imported it by name, the package namespace)
is replaced, so a call is traced whichever name it goes through.

A span is (name, start, end, parent) with the parent being the span that
was open when the call began; spans are kept in flat arrays until the
benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Patches:
    """Attribute replacements, undone in reverse order by `uninstall()`."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.weight = defaultdict(float)   # extra per-name sums (bytes, ...)
        self.samples = defaultdict(list)   # extra per-call samples
        self.paused = False
        self._stack = [-1]

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_call=None):
        """Wrapper recording one span per call. `name` may be a callable of
        (args, kwargs) returning the span name; `on_call(tracer, args,
        kwargs, result)` runs after a successful call, outside the span."""
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self._open(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return traced

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def opaque(self, name):
        """One span named `name` for the block; calls inside it are not
        recorded, so all of its time is the span's own."""
        if self.paused:
            yield
            return
        i = self._open(self._name_id(name))
        try:
            with self.pause():
                yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside the block are not recorded."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # ------------------------------------------------------------- patching

    def patch_function(self, fn, wrapper, package="tlammcox"):
        """Replace every module-level binding of `fn` inside `package`, and
        every value equal to it in module-level dicts (dispatch tables)."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    hits += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._set_item(value, key, wrapper)
                            hits += 1
        if not hits:
            raise LookupError(f"no binding of {fn.__qualname__} found in {package}")

    def patch_method(self, cls, attr, wrapper):
        self._set(cls, attr, wrapper)

    # ------------------------------------------------------------- analysis

    def spans(self):
        """Rows of (name, start, end, parent index, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [(self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i], self.end[i] - self.start[i] - child[i])
                for i in range(n)]
