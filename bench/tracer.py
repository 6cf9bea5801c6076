"""Outside-in span tracer for the robinsphere layers.

The tracer wraps public library functions where the modules bind them, so no
library code changes. A function imported with ``from x import f`` is bound a
second time in the importing module; ``install`` therefore replaces every
attribute of every loaded ``robinsphere`` module that is the same function
object, so calls through ``parallel.perimeter`` or ``cli.perimeter_profile``
are recorded like calls through ``capbody.perimeter``.

Spans are kept in memory as ``[name, start, end, parent, item]`` with
``parent`` the index of the enclosing span (-1 at the root) and ``item`` the
benchmark item that caused it. A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer -> functions wrapped in that layer. ``fem.splu`` is SciPy's sparse LU
# as bound inside ``robinsphere.fem``; it is wrapped there and nowhere else.
TARGETS: dict[str, tuple[str, ...]] = {
    "capbody": (
        "perimeter",
        "inner_parallel",
        "boundary_structure",
        "incenter_and_inradius",
        "hemisphere_witness",
        "random_body",
    ),
    "radial": ("first_eigenvalue", "shoot", "u_min_and_l2"),
    "parallel": ("perimeter_profile", "transplant_rayleigh", "thm1_verify", "thm2_verify"),
    "spaceform": ("radius_from_perimeter",),
    "fem": ("solve_body", "mesh_body", "assemble_and_solve", "splu"),
    "cli": ("main",),
    "report": ("reports_to_json", "rows_to_csv"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Records spans and call counts of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.mesh_vertices = 0  # summed over fem.mesh_body results: the FEM problem size
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        homes = {layer: importlib.import_module(f"robinsphere.{layer}") for layer in TARGETS}
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "robinsphere" or name.startswith("robinsphere."))
        ]
        for layer, fns in TARGETS.items():
            for fn in fns:
                original = getattr(homes[layer], fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_mesh = name == "fem.mesh_body"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if is_mesh:
                self.mesh_vertices += len(result.vertices)
            return result

        return traced

    def summary(self, items_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and total ``self_s``.

        With ``items_only``, only spans of benchmark items count, not those
        of input generation (``item`` -1).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for idx, (name, start, end, _, item) in enumerate(self.spans):
            if items_only and item < 0:
                continue
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child_time[idx]
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans directly under a ``parent_name`` span."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent, _ in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )
