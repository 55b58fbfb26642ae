"""EXPLAIN trees: the rendered form of a physical query plan.

Every physical operator (see :mod:`repro.query.plan.vectorized`) can
snapshot itself into an :class:`ExplainNode`; the engines wrap the
operator tree with nodes for the logical tail (filters, projection,
DISTINCT, ORDER BY, LIMIT) and hand the root to :func:`render_text` /
:func:`ExplainNode.to_dict`.

Estimated cardinalities come from the statistics catalog at plan time;
actual cardinalities are the per-operator row counters of the most
recent execution, so ``EXPLAIN`` output doubles as an ``EXPLAIN
ANALYZE``.  Under ``analyze`` mode the operators additionally report
loop counts (how often their per-row work ran) and inclusive wall time;
both fields are optional and the renderers degrade gracefully — a plan
without them renders exactly as plain ``EXPLAIN`` always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExplainNode", "render_text"]


def _format_rows(value: float) -> str:
    """Cardinalities render as integers when integral, else 1 decimal."""
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


@dataclass
class ExplainNode:
    """One rendered operator (or logical step) of a query plan."""

    op: str
    detail: str = ""
    est_rows: float | None = None
    actual_rows: int | None = None
    #: Times the operator's per-row work ran (ANALYZE only): index
    #: probes for a bind join, seedings/expansions for Cypher, 1 for a
    #: one-shot scan or hash build.
    actual_loops: int | None = None
    #: Inclusive wall time of the subtree in milliseconds (ANALYZE only).
    wall_ms: float | None = None
    children: tuple["ExplainNode", ...] = ()
    extras: dict[str, object] = field(default_factory=dict)

    def label(self) -> str:
        """The one-line rendering of this node."""
        parts = [self.op]
        if self.detail:
            parts.append(self.detail)
        cards = []
        if self.est_rows is not None:
            cards.append(f"est={_format_rows(self.est_rows)}")
        if self.actual_rows is not None:
            cards.append(f"act={self.actual_rows}")
        if self.actual_loops is not None:
            cards.append(f"loops={self.actual_loops}")
        if self.wall_ms is not None:
            cards.append(f"time={self.wall_ms:.3f}ms")
        if cards:
            parts.append(f"({' '.join(cards)})")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the subtree."""
        data: dict[str, object] = {"op": self.op}
        if self.detail:
            data["detail"] = self.detail
        if self.est_rows is not None:
            data["est_rows"] = round(self.est_rows, 3)
        if self.actual_rows is not None:
            data["actual_rows"] = self.actual_rows
        if self.actual_loops is not None:
            data["actual_loops"] = self.actual_loops
        if self.wall_ms is not None:
            data["wall_ms"] = round(self.wall_ms, 3)
        if self.extras:
            data.update(self.extras)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def walk(self):
        """Yield every node of the subtree, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


def render_text(root: ExplainNode) -> str:
    """Render an explain tree with box-drawing connectors.

    The layout is deterministic (wall times excepted, which only appear
    under ANALYZE), so golden tests can pin plan shape, operator order,
    and cardinalities.
    """
    lines: list[str] = [root.label()]

    def walk(node: ExplainNode, prefix: str) -> None:
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            connector = "└─ " if last else "├─ "
            lines.append(prefix + connector + child.label())
            walk(child, prefix + ("   " if last else "│  "))

    walk(root, "")
    return "\n".join(lines)
