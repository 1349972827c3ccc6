"""Span tracing of the wreath_sylow layers, applied from outside the package.

``Tracer.install()`` replaces every module attribute (and class attribute)
bound to one of the functions in ``ROWS`` with a timing wrapper.  The
scan covers every loaded ``wreath_sylow`` module, so ``from .x import f``
copies (``complements.spin``, ``uniserial.tail_action_matrices``, the
package re-exports) are wrapped as well as the defining module's own
global, which is what intra-module calls look up.

Spans are kept in memory as ``(name, start, end, parent, case)`` and only
while ``recording`` is true, so set-up work is never traced.  A listed
function that no longer exists is reported with zero calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# the listed functions, grouped by the end-to-end metrics and workload each
# should move: (title, metrics, workload, "<module>.<function>" span names)
ROWS = [
    ("decide engine", "wall_s, case_p50_ms, peak_rss_mb", "deep-ladder",
     ["tower.tail_action_matrices", "uniserial.summand_ranks", "uniserial.socle_coordinates",
      "uniserial.choose_levels", "linalg.spin", "linalg.fixed_subspace",
      "linalg.augmentation_subspace", "linalg.left_kernel", "linalg.Subspace.span",
      "linalg.Subspace.intersect", "linalg.Subspace.sum_with"]),
    ("closure and certificate", "wall_s, case_tail_ms", "deep-ladder",
     ["complements.closure_handle", "complements.decide", "complements.verify_complement",
      "complements.decision_json", "tower.block_conjugates", "tower.prefix_rep"]),
    ("per-call overhead", "case_p50_ms, case_tail_ms", "mixed-stream",
     ["words.parse_generators", "perm.parse_cycles", "perm.format_cycles", "perm.conjugate",
      "tower.shift_gen", "tower.co_shift_gen", "tower.scale_gens", "tower.depth",
      "tower.tail_image", "partition.partition_generators", "partition.level_chain",
      "linalg.lower_central_series", "cli.main"]),
    ("brute-force oracle", "wall_s, case_tail_ms", "oracle-crosscheck",
     ["oracle.bfs_closure", "oracle.all_normal_subgroups", "oracle.exhaustive_complements",
      "oracle.has_complement", "oracle.max_abelian_stats", "gallery.gallery_mod9",
      "gallery.gallery_quaternion_central"]),
]

SPAN_NAMES = [name for *_, names in ROWS for name in names]

# counters recorded at the same boundaries: name -> unit
COUNTERS = {
    "linalg.spin.dim_sum": "count",
    "linalg.spin.rank_sum": "count",
    "oracle.bfs_closure.elements": "count",
    "oracle.exhaustive_complements.closures_per_verdict": "closures/verdict",
}


class Tracer:
    def __init__(self):
        self.recording = False
        self.case = None
        # one entry per span: [name, start, end, parent index, case]
        self.spans: list[list] = []
        self._child: list[float] = []  # time covered by each span's children
        self._stack: list[int] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.spin_dim_sum = 0
        self.spin_rank_sum = 0
        self.bfs_elements = 0
        self.search_closures = 0  # bfs_closure calls made inside a complement search
        self._search_depth = 0
        self.installed: list[str] = []

    # -- installing the wrappers -------------------------------------------------

    def install(self, package: str = "wreath_sylow") -> None:
        """Wrap every binding of a listed function in the loaded package modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        originals = {}  # id(function) -> wrapper
        for span in SPAN_NAMES:
            layer, _, attr = span.partition(".")
            mod = modules.get(f"{package}.{layer}")
            cls_name, _, fn = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(fn) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, fn, classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(cls, fn, self._wrap(span, raw))
                self.installed.append(span)
                continue
            func = getattr(mod, fn, None)
            if callable(func):
                originals[id(func)] = self._wrap(span, func)
                self.installed.append(span)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, span: str, fn):
        after = {
            "linalg.spin": self._after_spin,
            "oracle.bfs_closure": self._after_bfs,
        }.get(span)
        search = span == "oracle.exhaustive_complements"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(span)
            if search:
                self._search_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if search:
                    self._search_depth -= 1
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    # -- span bookkeeping --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += dur - self._child[idx]
        if span[3] >= 0:
            self._child[span[3]] += dur

    def _after_spin(self, result) -> None:
        self.spin_dim_sum += result.dim
        self.spin_rank_sum += result.rank

    def _after_bfs(self, result) -> None:
        self.bfs_elements += result.order
        if self._search_depth:
            self.search_closures += 1

    # -- reporting ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        searches = self.calls["oracle.exhaustive_complements"]
        out["linalg.spin.dim_sum"] = (self.spin_dim_sum, "count")
        out["linalg.spin.rank_sum"] = (self.spin_rank_sum, "count")
        out["oracle.bfs_closure.elements"] = (self.bfs_elements, "count")
        out["oracle.exhaustive_complements.closures_per_verdict"] = (
            self.search_closures / searches if searches else 0.0,
            COUNTERS["oracle.exhaustive_complements.closures_per_verdict"],
        )
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent index, case id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
