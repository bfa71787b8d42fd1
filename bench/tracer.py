"""Per-layer spans recorded from outside the package.

The tracer wraps named public functions of ``hibires`` by rebinding every
module attribute that *is* the function object, so a function imported
into several modules (``rank_exact`` in ``oracle`` and ``resolution``) is
covered wherever it is called from.  A named function that no longer
exists is reported as absent.  Spans (name, start, end, parent, instance)
are kept in memory and written out once the run ends; counters record
the sizes each layer worked on.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "graphs", "lattice", "ideals", "resolution", "invariants",
    "oracle", "linalg", "checks", "cli",
)


def _count_lattice(tr, args, kwargs, L):
    tr.count("lattice.elements", len(L))
    tr.count_max(
        "lattice.max_neighbors", max(len(L.neighbors(p)) for p in L.elements)
    )


def _count_closure(tr, args, kwargs, closure):
    tr.count("ideals.lcm_closure.size", len(closure))


def _count_basis(tr, args, kwargs, C):
    tr.count("resolution.basis_elements", sum(C.level_ranks()))


def _count_complex(tr, args, kwargs, K):
    tr.count("oracle.faces", sum(len(fs) for fs in K.faces.values()))


def _count_faces(tr, args, kwargs, faces):
    tr.count("oracle.faces", len(faces))


def _count_homology(tr, args, kwargs, result):
    tr.count("oracle.homology_calls", 1)
    if not result:
        tr.count("oracle.homology_zero", 1)


def _count_rank(tr, args, kwargs, result):
    rows = args[0] if args else kwargs.get("sparse_rows", ())
    tr.count("linalg.rank_exact.rows", len(rows))
    tr.count("linalg.rank_exact.nnz", sum(len(r) for r in rows))


# (layer.function, counter hook or None)
TARGETS = (
    ("graphs.normalize_graph", None),
    ("graphs.cover_lattice", None),
    ("graphs.minimal_vertex_covers", None),
    ("lattice.validate_sublattice", _count_lattice),
    ("ideals.lcm_closure", _count_closure),
    ("ideals.alexander_dual", None),
    ("resolution.build_resolution", _count_basis),
    ("resolution.verify_complex", None),
    ("resolution.strand_exactness", None),
    ("resolution.betti_table_from_basis", None),
    ("invariants.invariant_report", None),
    ("oracle.betti_oracle", None),
    ("oracle.upper_koszul_complex", _count_complex),
    ("oracle.reduced_homology_ranks", _count_homology),
    ("oracle.betti_value_at", _count_homology),
    ("oracle._faces_of_size", _count_faces),
    ("linalg.rank_exact", _count_rank),
    ("checks.run_checks", None),
    ("cli.main", None),
)

COUNTERS = (
    ("lattice.elements", "count"),
    ("lattice.max_neighbors", "count"),
    ("ideals.lcm_closure.size", "count"),
    ("resolution.basis_elements", "count"),
    ("oracle.faces", "count"),
    ("oracle.zero_share", "ratio"),
    ("linalg.rank_exact.rows", "count"),
    ("linalg.rank_exact.nnz", "count"),
)


class Tracer:
    """Installs wrappers on the loaded ``hibires`` modules and records spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # [name, start, end, parent index, instance, counter-hook seconds]
        self.spans = []
        self.stack = []
        self.instance = None
        self.counters = defaultdict(int)
        self.per_instance = defaultdict(lambda: defaultdict(int))
        self.absent = []
        self._wrappers = None  # [(function, wrapper)], resolved on first install
        self._restore = []

    # -- counters ---------------------------------------------------------

    def count(self, key, value):
        self.counters[key] += value
        self.per_instance[self.instance][key] += value

    def count_max(self, key, value):
        self.counters[key] = max(self.counters[key], value)
        cell = self.per_instance[self.instance]
        cell[key] = max(cell[key], value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
                span[5] = clock() - span[2]
            return result

        return traced

    def _resolve(self):
        wrappers = []
        for name, hook in self.targets:
            modname, fname = name.split(".", 1)
            home = sys.modules.get(f"hibires.{modname}")
            fn = getattr(home, fname, None) if home is not None else None
            if callable(fn):
                wrappers.append((fn, self._wrap(name, fn, hook)))
            else:
                self.absent.append(name)
        return wrappers

    def install(self):
        """Rebind every loaded hibires module attribute that is a target."""
        if self._wrappers is None:
            self._wrappers = self._resolve()
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hibires" or key.startswith("hibires."))
        ]
        for fn, wrapper in self._wrappers:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        """name -> calls, name -> self seconds.

        Self time is the span's duration minus its children's; the time
        counter hooks take after a child returns is excluded as well.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, hook_s in self.spans:
            if parent >= 0:
                child[parent] += end - start + hook_s
        calls = defaultdict(int)
        own = defaultdict(float)
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[k]
        return calls, own

    def metrics(self):
        """Per-function calls/self time, per-layer self time, counters."""
        calls, own = self.self_times()
        out = {}
        for name, _ in self.targets:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        for layer in LAYERS:
            total = sum(
                (t for name, t in own.items() if name.split(".")[0] == layer), 0.0)
            out[f"layer.{layer}.self_s"] = (total, "s")
        c = self.counters
        homology = c.get("oracle.homology_calls", 0)
        zero_share = c.get("oracle.homology_zero", 0) / homology if homology else 0.0
        for key, unit in COUNTERS:
            value = zero_share if key == "oracle.zero_share" else c.get(key, 0)
            out[key] = (value, unit)
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path, meta):
        """Spans as gzipped JSON: names table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta)
        doc["absent"] = self.absent
        doc["names"] = names
        doc["spans"] = [
            [index[name], round(start, 7), round(end, 7), parent, inst]
            for name, start, end, parent, inst, _ in self.spans
        ]
        doc["per_instance"] = {
            str(k): dict(v) for k, v in self.per_instance.items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
