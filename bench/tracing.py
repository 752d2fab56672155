"""In-memory span tracing at gensim's module boundaries.

The gensim modules import functions by name (``from .linear import
reachable_profiles``), so a wrapper has to replace the name in the calling
module's namespace, not only in the defining module.  ``install`` patches
every call site listed in ``SPAN_SITES`` and friends, and returns an undo
function.  Nothing under ``src/`` is edited.

Spans are kept in parallel arrays (name id, start, end, parent, job id), so
a traced matrix run with a million subset calls stays small.  A layer's
self time is its span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import types
from array import array
from collections import Counter
from time import perf_counter_ns

# Root span the harness opens around each ``gensim.cli.main`` call.
JOB_SPAN = "cli.main"


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, result_count: str | None = None):
        """Wrap ``fn`` so each call records one span named ``name``.

        With ``result_count``, the length of each result is added to that
        counter (the closure functions return their profile lists).
        """
        nid = self._intern(name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            jobs.append(self.job_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if result_count is not None:
                counts[result_count] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only bumps counter ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span directly; returns its index."""
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(self.job_id)
        return idx

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns of outermost spans, self ns."""
        n = len(self.start)
        child_ns = [0] * n
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "inclusive_ns": 0, "self_ns": 0} for name in self.names}
        # Inclusive time counts a span only when no ancestor has the same name,
        # so recursion is not counted twice.
        for i in range(n):
            entry = out[self.names[names[i]]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_ns"] += duration - child_ns[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                entry["inclusive_ns"] += duration
        return out

    def merge(self, other: "Tracer", job_id: int) -> None:
        """Append another process's spans, rebasing parents and job ids."""
        base = len(self.start)
        remap = [self._intern(name) for name in other.names]
        for i in range(len(other.start)):
            self.name.append(remap[other.name[i]])
            self.start.append(other.start[i])
            self.end.append(other.end[i])
            p = other.parent[i]
            self.parent.append(p + base if p >= 0 else -1)
            self.job.append(job_id)
        self.counts.update(other.counts)

    def dump(self, path: str) -> None:
        """Write ``path`` (JSON header) and ``path + '.spans'`` (raw arrays)."""
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "spans": len(self.start),
            "fields": [["name", "i"], ["start", "q"], ["end", "q"], ["parent", "i"], ["job", "i"]],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(path + ".spans", "wb") as handle:
            for field, _ in header["fields"]:
                getattr(self, field).tofile(handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with open(path, encoding="utf-8") as handle:
            header = json.load(handle)
        tracer = cls()
        for name in header["names"]:
            tracer._intern(name)
        tracer.counts.update(header["counts"])
        with open(path + ".spans", "rb") as handle:
            for field, code in header["fields"]:
                arr = array(code)
                arr.fromfile(handle, header["spans"])
                setattr(tracer, field, arr)
        return tracer


# (module, attribute, span name): functions wrapped where each caller looks
# them up.
SPAN_SITES = (
    ("similarity", "decide_leq", "similarity.decide"),
    ("cli", "decide_leq", "similarity.decide"),
    ("corpus", "decide_leq", "similarity.decide"),
    ("similarity", "build_engine", "similarity.build_engine"),
    ("cli", "build_engine", "similarity.build_engine"),
    ("cli", "find_characteristic_set", "similarity.charset"),
    ("corpus", "find_characteristic_set", "similarity.charset"),
    ("automata", "gen_language", "automata.gen_language"),
    ("automata", "dfa_intersect", "automata.intersect"),
    ("automata", "dfa_subset", "automata.subset"),
    ("cli", "parse_algebra", "algebra.parse"),
    ("corpus", "parse_algebra", "algebra.parse"),
    ("cli", "is_homomorphism", "morphism.verify"),
    ("cli", "is_isomorphism", "morphism.verify"),
    ("cli", "verify_isomorphism_lemma", "morphism.verify"),
    ("cli", "check_g_functor", "morphism.verify"),
    ("cli", "check_second_isomorphism", "morphism.verify"),
)

# Closure entry points; the result length is the number of profiles.
CLOSURE_SITES = (
    ("similarity", "reachable_profiles", "linear"),
    ("morphism", "reachable_profiles", "linear"),
    ("similarity", "paired_clone", "monolinear"),
    ("corpus", "paired_clone", "monolinear"),
    ("similarity", "saturate_profiles", "general"),
)

# Each engine module's own ``witness_key`` calls: one per candidate pushed.
CANDIDATE_SITES = ("linear", "monolinear", "general")

ENGINE_CLASSES = ("LinearEngine", "UnaryEngine", "MonolinearEngine", "GeneralEngine")


def install(tracer: Tracer, modules: dict[str, types.ModuleType]):
    """Patch the gensim call sites; returns a function that undoes it.

    ``modules`` maps short names (``"cli"``, ``"similarity"``, ...) to the
    imported ``gensim.<name>`` modules.
    """
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for mod, attr, name in SPAN_SITES:
        owner = modules[mod]
        patch(owner, attr, tracer.span(name, getattr(owner, attr)))
    for mod, attr, layer in CLOSURE_SITES:
        owner = modules[mod]
        patch(owner, attr, tracer.span(f"{layer}.closure", getattr(owner, attr),
                                       result_count=f"{layer}.profiles"))
    for mod in CANDIDATE_SITES:
        owner = modules[mod]
        patch(owner, "witness_key", tracer.counter(f"{mod}.candidates", owner.witness_key))

    similarity = modules["similarity"]
    for cls_name in ENGINE_CLASSES:
        cls = getattr(similarity, cls_name)
        patch(cls, "subset", tracer.span("similarity.subset", cls.subset))

    verdict_cls = modules["verdict"].Verdict
    patch(verdict_cls, "to_dict", tracer.span("cli.render", verdict_cls.to_dict))
    matrix_cls = similarity.SimilarityMatrix
    patch(matrix_cls, "to_dict", tracer.span("cli.render", matrix_cls.to_dict))
    patch(matrix_cls, "render_text", tracer.span("cli.render", matrix_cls.render_text))
    cli = modules["cli"]
    # cli only calls json.dumps; give it a namespace whose dumps is traced.
    patch(cli, "json", types.SimpleNamespace(dumps=tracer.span("cli.render", cli.json.dumps)))

    example_checks = cli.example_checks

    def traced_example_checks():
        return [
            dataclasses.replace(c, run=tracer.span("corpus.examples", c.run))
            for c in example_checks()
        ]

    patch(cli, "example_checks", traced_example_checks)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def gensim_modules() -> dict[str, types.ModuleType]:
    """Import and return the gensim modules that ``install`` patches."""
    import importlib

    names = ("cli", "similarity", "automata", "linear", "monolinear", "general",
             "corpus", "morphism", "verdict")
    return {name: importlib.import_module(f"gensim.{name}") for name in names}
