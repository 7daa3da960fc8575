"""In-memory span recorder around hypbound's public functions.

`Tracer.installed()` replaces each traced function with a wrapper in every
hypbound module namespace that binds it.  `bp` and `halving` import
`nearest_boundary`, `distance_set`, `boundary_gap` and `first_boundary_hit`
by name, so patching only `geometry` would miss their calls.  Each call
appends one span (name, start, end, parent, op); inclusive and self time are
derived from the spans after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute path) of every traced public function
TRACED = (
    ("geometry", "load_domain"),
    ("geometry", "contains"),
    ("geometry", "nearest_boundary"),
    ("geometry", "boundary_gap"),
    ("geometry", "distance_set"),
    ("geometry", "first_boundary_hit"),
    ("bp", "bp_bounds"),
    ("bp", "compute_L"),
    ("bp", "log_distance_to_set"),
    ("halving", "constants"),
    ("halving", "build_certificate"),
    ("halving", "verify_certificate"),
    ("halving", "dyadic_witness"),
    ("halving", "lower_bound"),
    ("cli", "main"),
    ("cli", "sweep_rows"),
    ("cli", "point_row"),
    ("cli", "SweepRow.csv"),
)
NAMES = tuple(f"{m}.{a}" for m, a in TRACED)

# a value recorded per span from the function's result
OBSERVE = {"geometry.nearest_boundary": lambda nb: len(nb.witnesses)}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("i")
        self.stack: list[int] = []
        self.op_id = 0

    def _wrap(self, nid: int, fn):
        name, start, end, parent, op, value = (
            self.name, self.start, self.end, self.parent, self.op, self.value,
        )
        stack = self.stack
        observe = OBSERVE.get(NAMES[nid])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            value.append(-1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                value[idx] = observe(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        modules = [m for k, m in list(sys.modules.items()) if k == "hypbound" or k.startswith("hypbound.")]
        patches = []  # (owner, attribute, original)
        for nid, (mod, path) in enumerate(TRACED):
            owner = sys.modules[f"hypbound.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(nid, orig)
            for holder in [owner] if outer else modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        patches.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        try:
            yield self
        finally:
            for holder, key, orig in reversed(patches):
                setattr(holder, key, orig)

    # -- derived numbers -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def per_function(self, ops: int) -> dict[str, float]:
        """calls_per_op, us_per_call (inclusive) and self_us_per_op per function."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        incl = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i in range(n):
            k = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            incl[k] += dur
            self_ns[k] += dur - child[i]
        out = {}
        for k, nm in enumerate(NAMES):
            out[f"{nm}.calls_per_op"] = calls[k] / ops
            out[f"{nm}.us_per_call"] = incl[k] / calls[k] / 1e3 if calls[k] else 0.0
            out[f"{nm}.self_us_per_op"] = self_ns[k] / ops / 1e3
        return out

    def calls(self) -> dict[str, int]:
        c = Counter(self.name)
        return {nm: c[k] for k, nm in enumerate(NAMES)}

    def child_calls(self, child: str, parent: str) -> int:
        """Calls of `child` made directly from `parent`."""
        ci, pi = NAMES.index(child), NAMES.index(parent)
        return sum(
            1 for i in range(len(self.name))
            if self.name[i] == ci and self.parent[i] >= 0 and self.name[self.parent[i]] == pi
        )

    def observed(self, fn: str) -> list[int]:
        k = NAMES.index(fn)
        return [self.value[i] for i in range(len(self.name)) if self.name[i] == k]

    def write(self, path) -> None:
        """Dump the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\tvalue\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.value[i]}\n"
                )
