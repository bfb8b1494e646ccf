"""Spans and counts around rainbowkit's public functions, recorded from the
benchmark's side.

Each traced function is replaced, for the length of a ``with
tracer.patched():`` block, under every name that a rainbowkit module binds
it to, so calls from inside the package are caught as well as the
benchmark's own. A span's busy time is its wall time; its self time is that
less the time spent in the traced spans it called. A generator is timed only
while one of its own steps runs, so the consumer's work between steps is not
charged to it. Time spent in the tracer's own bookkeeping after a call is
kept out of the calling span's self time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

Note = Callable[[Counter, tuple, object], None]


def _note_witness(counts: Counter, args: tuple, result: object) -> None:
    if result is not None:
        counts["rainbow_solver.witness_edges"] += len(result)


def _note_network(counts: Counter, args: tuple, result: object) -> None:
    network, inner_count, _ = result
    counts["rainbow_solver.network.paths"] += network.total_paths
    counts["rainbow_solver.network.inner"] += inner_count


def _note_constructive(counts: Counter, args: tuple, result: object) -> None:
    family, inner_count = args[:2]
    if family.total_paths > inner_count:
        counts["network_paths.constructive_steps"] += 1


# (defining module, function, is a generator, note on the call's result)
SPANS: tuple[tuple[str, str, bool, Optional[Note]], ...] = (
    ("graph_core", "augmenting_paths", False, None),
    ("rainbow_solver", "find_rainbow_matching", False, _note_witness),
    ("rainbow_solver", "build_contracted_network", False, _note_network),
    ("rainbow_solver", "classify_family", False, None),
    ("network_paths", "find_multicolored_st_path", False, _note_constructive),
    ("network_paths", "iter_multicolored_st_paths", True, None),
    ("network_paths", "is_regimented", False, None),
    ("network_paths", "verify_regimented_dichotomy", False, None),
    ("reductions", "egz_family", False, None),
    ("reductions", "find_zero_sum_subset", False, None),
    ("reductions", "classify_multiset", False, None),
    ("oracle", "brute_mc_path", False, None),
    ("oracle", "generate", False, None),
)


class Tracer:
    """Busy and self seconds per span name, plus deterministic counts.

    ``counts`` holds ``<span>.calls``, ``<span>.yields`` for generators, and
    whatever the notes add; it must repeat exactly for the same inputs.
    """

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._child = [0.0]  # per open span: time covered by its children

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rainbowkit" or name.startswith("rainbowkit.")]
        undo = []
        try:
            for module_name, fn_name, is_gen, note in SPANS:
                home = sys.modules.get(f"rainbowkit.{module_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # a later version may drop the function
                name = f"{module_name}.{fn_name}"
                wrapper = (self._generator(name, original) if is_gen
                           else self._function(name, original, note))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def _close(self, name: str, start: float, end: float) -> None:
        inner = self._child.pop()
        self.busy[name] += end - start
        self.self_s[name] += end - start - inner
        self._child[-1] += end - start

    def _function(self, name: str, fn: Callable, note: Optional[Note]) -> Callable:
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, perf_counter())
                self.counts[f"{name}.calls"] += 1
            if note is not None:
                begin = perf_counter()
                note(self.counts, args, result)
                self._child[-1] += perf_counter() - begin
            return result

        return traced

    def _generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return self._steps(name, fn(*args, **kwargs))

        return traced

    def _steps(self, name: str, gen: Iterator) -> Iterator:
        try:
            while True:
                self._child.append(0.0)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name, start, perf_counter())
                self.counts[f"{name}.yields"] += 1
                yield item
        finally:
            gen.close()
