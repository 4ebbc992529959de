"""Run one medembed CLI command with spans around the calls into each module.

    python perfbench/trace_child.py SPANS_FILE RUN_ID -- CLI_ARGS...

Wraps, from outside the package, the functions ``medembed.cli`` imports, the
methods of ``MedianGraph`` and ``RootedTree`` that do the graph work,
``metrics.embedding_matrix``, ``SparseVector.as_arrays`` and the closures the
embedders return, then calls ``medembed.cli.main(CLI_ARGS)``. Spans (name,
start, end, parent index) and counters stay in memory and are written to
SPANS_FILE as JSON when the command ends, with the wall-clock times at which
this script was entered and wrote the file, so that the caller can tell
interpreter start-up and shut-down apart. The exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import weakref
from functools import partial, wraps


class Tracer:
    """In-memory spans and counters for one CLI command."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span and counts
        ``<name>_calls``; ``on_result(tracer, result, *args)`` adds the
        call's work counters outside the span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            self.count(name + "_calls")
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start - self.t0, end - self.t0, parent)
            if on_result is not None:
                on_result(self, result, *args)
            return result

        return traced

    def first_call_span(self, name: str, method, on_result=None):
        """Like ``span`` for a cached method: only the first call per
        object records a span; later calls (cache hits) are only counted."""
        traced = self.span(name, method, on_result)
        seen = weakref.WeakSet()

        @wraps(method)
        def wrapper(obj):
            if obj in seen:
                self.count(name + "_calls")
                return method(obj)
            seen.add(obj)
            return traced(obj)

        return wrapper

    def embedder(self, name: str, factory):
        """Wrap an embedder factory so the closure it returns is traced."""
        nnz = _counter(name + "_nnz", lambda vec, *args: len(vec.coords))

        @wraps(factory)
        def make(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs), nnz)

        return make

    def dump(self, path: str, run_id: str, entered_at: float, startup_s: float,
             module: str) -> None:
        doc = {
            "run_id": run_id,
            "entered_at": entered_at,
            "startup_s": startup_s,
            "module": module,
            "spans": self.spans,
            "counters": self.counters,
            "dumped_at": time.time(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _counter(key, of):
    return lambda tracer, result, *args: tracer.count(key, of(result, *args))


def _count_profile(tracer, prof, *args):
    tracer.count("metrics.profile_rows", len(prof.entries))
    tracer.count("metrics.pairs", sum(e.pair_count for e in prof.entries))


def _rows(rows, *args):
    return rows.shape[0]


def _file_size(result, *args):
    # load_spacefile(path) and save_spacefile(sf, path): the path comes last
    return os.path.getsize(args[-1])


# "module:name" or "module:Class.method" -> (span name, counter or None).
# Names in medembed.cli are patched there, because the CLI calls its own
# imported references.
SPANS = {
    "medembed.cli:load_spacefile": ("spacefile.load_spacefile",
                                    _counter("spacefile.bytes", _file_size)),
    "medembed.cli:save_spacefile": ("spacefile.save_spacefile",
                                    _counter("spacefile.bytes", _file_size)),
    "medembed.cli:build_space": ("spacefile.build_space", None),
    "medembed.cli:to_spacefile": ("spacefile.to_spacefile", None),
    "medembed.cli:gen_tree": ("tree.gen_tree", None),
    "medembed.cli:gen_cube": ("cube.gen_cube", None),
    "medembed.cli:validate_median": (
        "cube.validate_median", _counter("cube.triples", lambda v, *a: v.triples_checked)),
    "medembed.cli:normal_cube_path": ("cube.normal_cube_path", None),
    "medembed.cli:path_index_map": ("cube.path_index_map", None),
    "medembed.cli:median_from_tree": ("cube.median_from_tree", None),
    "medembed.cli:profile": ("metrics.profile", _count_profile),
    "medembed.cli:check_profile_against": ("metrics.check_profile_against", None),
    "medembed.cli:unit_identity_max_rel_error": ("metrics.unit_identity_max_rel_error", None),
    "medembed.cli:l1_l2_compare": ("metrics.l1_l2_compare", None),
    "medembed.cli:default_bound_curves": ("weights.default_bound_curves", None),
    "medembed.cli:build_weight_report": ("weights.build_weight_report", None),
    "medembed.cli:parse_weight": ("weights.parse_weight", None),
    "medembed.metrics:embedding_matrix": ("metrics.embedding_matrix", None),
    "medembed.tree:RootedTree.distances_from": (
        "tree.distances_from", _counter("tree.distances_from_sources", _rows)),
    "medembed.cube:MedianGraph.distances_from": (
        "cube.distances_from", _counter("cube.distances_from_sources", _rows)),
    "medembed.cube:MedianGraph.separating_counts": ("cube.separating_counts", None),
    "medembed.sparse:SparseVector.as_arrays": ("sparse.as_arrays", None),
}


def _patch(target: str, wrap) -> None:
    """Replace ``target`` with ``wrap(original)``. A name this version of
    the package does not have is skipped, and its metrics read 0."""
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for name in parents:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        return
    setattr(owner, attr, wrap(original))


def install(tracer: Tracer) -> None:
    """Replace the traced entry points with wrappers."""
    for target, (name, on_result) in SPANS.items():
        _patch(target, partial(tracer.span, name, on_result=on_result))
    _patch("medembed.cube:MedianGraph.hyperplanes",
           partial(tracer.first_call_span, "cube.hyperplanes",
                   on_result=_counter("cube.classes", lambda hyps, *a: len(hyps))))
    _patch("medembed.cli:tree_embedder", partial(tracer.embedder, "tree.embed"))
    _patch("medembed.cli:cube_embedder", partial(tracer.embedder, "cube.embed"))


def main() -> int:
    entered_at = time.time()
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_FILE RUN_ID -- CLI_ARGS...")
    start = time.perf_counter()
    import medembed.cli
    startup_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.span("cli.main", medembed.cli.main)(argv)
    finally:
        tracer.dump(spans_path, run_id, entered_at, startup_s, medembed.cli.__file__)


if __name__ == "__main__":
    sys.exit(main())
