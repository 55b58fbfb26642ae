"""SHACL validation implementing the shape semantics of Definition 2.3.

Given a graph ``G`` and shape schema ``S_G``, every entity ``e`` with
``<e, a, tau_s> ∈ G`` for a node shape ``<s, tau_s, Phi_s>`` is checked
against all property shapes in ``Phi_s`` (including inherited ones):

* literal value-type constraints: every object of ``tau_p`` must be a
  literal of the specified datatype;
* class value-type constraints: every object must be an instance of one of
  the allowed classes (or a subclass), and conform to that class's shape
  when one exists;
* node value-type constraints: every object must conform to the referenced
  shape;
* cardinality: the number of ``<e, tau_p, ·>`` triples must lie in
  ``[min, max]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Iterable

from .. import obs
from ..namespaces import RDF_TYPE, RDFS
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, Object, Subject, Triple
from .model import (
    ClassType,
    LiteralType,
    NodeShape,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
)

_TYPE = IRI(RDF_TYPE)
_SUBCLASS_OF = IRI(RDFS.subClassOf)


@dataclass(frozen=True)
class Violation:
    """A single conformance failure.

    Attributes:
        focus: the entity that fails.
        shape: the node shape being checked.
        path: the property involved, or None for shape-level problems.
        message: human-readable description.
    """

    focus: str
    shape: str
    path: str | None
    message: str

    def __str__(self) -> str:
        where = f" on {self.path}" if self.path else ""
        return f"[{self.shape}] {self.focus}{where}: {self.message}"


@dataclass
class ValidationReport:
    """The outcome of validating a graph against a shape schema."""

    conforms: bool
    violations: list[Violation] = field(default_factory=list)
    checked_entities: int = 0

    def __bool__(self) -> bool:
        return self.conforms


class ShaclValidator:
    """Validates RDF graphs against a :class:`ShapeSchema` (Definition 2.3).

    Args:
        schema: the shape schema ``S_G``.
        max_violations: stop collecting after this many failures
            (validation outcome is still exact; only the report is bounded).
    """

    def __init__(self, schema: ShapeSchema, max_violations: int = 10_000):
        self.schema = schema
        self.max_violations = max_violations
        # Per-validate() observability tallies (cheap plain-int/dict
        # accumulation on the hot path; flushed to obs once per run).
        self._memo_hits = 0
        self._memo_misses = 0
        self._shape_checks: dict[str, int] = {}

    def validate(self, graph: Graph) -> ValidationReport:
        """Validate every targeted entity in ``graph``."""
        self._memo_hits = 0
        self._memo_misses = 0
        self._shape_checks = {}
        with obs.span("shacl.validate", shapes=len(self.schema)) as span:
            report = self._validate(graph)
            span.set("entities", report.checked_entities)
            span.set("violations", len(report.violations))
            span.set("conforms", report.conforms)
            span.set("memo_hits", self._memo_hits)
            span.set("memo_misses", self._memo_misses)
        self._publish_metrics(report)
        return report

    def _validate(self, graph: Graph) -> ValidationReport:
        report = ValidationReport(conforms=True)
        class_to_shape = self.schema.target_classes()
        # Memo of (entity, shape-name) conformance to keep recursive
        # shape-reference checks linear.
        memo: dict[tuple[Subject, str], bool] = {}
        for cls_iri, shape_name in class_to_shape.items():
            for entity in graph.instances_of(IRI(cls_iri)):
                report.checked_entities += 1
                self._check_entity(graph, entity, shape_name, report, memo)
                if len(report.violations) >= self.max_violations:
                    report.conforms = False
                    return report
        return report

    def _publish_metrics(self, report: ValidationReport) -> None:
        metrics = obs.get_metrics()
        metrics.counter(
            "repro_validator_entities_total", help="entities checked"
        ).inc(report.checked_entities)
        metrics.counter(
            "repro_validator_violations_total", help="violations reported"
        ).inc(len(report.violations))
        metrics.counter(
            "repro_validator_memo_hits_total",
            help="memoized (entity, shape) verdict reuses",
        ).inc(self._memo_hits)
        metrics.counter(
            "repro_validator_memo_misses_total",
            help="fresh (entity, shape) checks",
        ).inc(self._memo_misses)
        checks = metrics.counter(
            "repro_validator_checks_total", help="per-shape entity checks"
        )
        for shape_name, count in self._shape_checks.items():
            checks.inc(count, shape=shape_name)

    def conforms(self, graph: Graph) -> bool:
        """Shortcut: True when ``graph ⊨ S_G``."""
        return self.validate(graph).conforms

    def entity_conforms(self, graph: Graph, entity: Subject, shape_name: str) -> bool:
        """Check a single entity against a single shape (``e ⊨_G s``)."""
        report = ValidationReport(conforms=True)
        self._check_entity(graph, entity, shape_name, report, {})
        return report.conforms

    # ------------------------------------------------------------------ #

    def _check_entity(
        self,
        graph: Graph,
        entity: Subject,
        shape_name: str,
        report: ValidationReport,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        key = (entity, shape_name)
        cached = memo.get(key)
        if cached is not None:
            self._memo_hits += 1
            if not cached:
                # The failure was discovered while this entity was checked
                # as a nested shape-ref target, so its violations went to
                # that caller's (discarded) sub-report; the verdict must
                # still reach this report.
                self._record(
                    report,
                    entity,
                    shape_name,
                    None,
                    "entity does not conform (checked as a referenced value)",
                )
            return cached
        self._memo_misses += 1
        self._shape_checks[shape_name] = self._shape_checks.get(shape_name, 0) + 1
        # Optimistically assume conformance to break reference cycles.
        memo[key] = True
        ok = True
        for phi in self.schema.effective_property_shapes(shape_name):
            if not self._check_property(graph, entity, shape_name, phi, report, memo):
                ok = False
        memo[key] = ok
        if not ok:
            report.conforms = False
        return ok

    def _check_property(
        self,
        graph: Graph,
        entity: Subject,
        shape_name: str,
        phi: PropertyShape,
        report: ValidationReport,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        path = IRI(phi.path)
        values = list(graph.objects(entity, path))
        ok = True

        count = len(values)
        if count < phi.min_count or count > phi.max_count:
            ok = False
            self._record(
                report,
                entity,
                shape_name,
                phi.path,
                f"cardinality {count} outside [{phi.min_count}, "
                f"{'*' if phi.max_count == float('inf') else int(phi.max_count)}]",
            )

        for value in values:
            if not self._value_matches_any(graph, value, phi, memo, report):
                ok = False
                self._record(
                    report,
                    entity,
                    shape_name,
                    phi.path,
                    f"value {value.n3()} matches none of "
                    f"{[str(v) for v in phi.value_types]}",
                )
        return ok

    def _value_matches_any(
        self,
        graph: Graph,
        value: Object,
        phi: PropertyShape,
        memo: dict[tuple[Subject, str], bool],
        report: ValidationReport,
    ) -> bool:
        for vt in phi.value_types:
            if isinstance(vt, LiteralType):
                if isinstance(value, Literal) and value.datatype == vt.datatype:
                    return True
            elif isinstance(vt, ClassType):
                if isinstance(value, IRI) and graph.is_instance_of(value, IRI(vt.cls)):
                    nested = self.schema.shape_for_class(vt.cls)
                    if nested is None:
                        return True
                    if self._check_nested(graph, value, nested.name, memo):
                        return True
            elif isinstance(vt, NodeShapeRef):
                if isinstance(value, IRI) and vt.shape in self.schema:
                    if self._check_nested(graph, value, vt.shape, memo):
                        return True
        return False

    def _check_nested(
        self,
        graph: Graph,
        value: IRI,
        shape_name: str,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        """Conformance of a referenced value; its violations stay unreported."""
        sub_report = ValidationReport(conforms=True)
        return self._check_entity(graph, value, shape_name, sub_report, memo)

    def _record(
        self,
        report: ValidationReport,
        entity: Subject,
        shape_name: str,
        path: str | None,
        message: str,
    ) -> None:
        if len(report.violations) < self.max_violations:
            report.violations.append(
                Violation(
                    focus=str(entity),
                    shape=shape_name,
                    path=path,
                    message=message,
                )
            )
        report.conforms = False


def validate(graph: Graph, schema: ShapeSchema) -> ValidationReport:
    """Validate ``graph`` against ``schema`` (module-level convenience)."""
    return ShaclValidator(schema).validate(graph)


class _SharedVerdicts(ShaclValidator):
    """A :class:`ShaclValidator` whose nested checks share verdicts across roots.

    :attr:`verdicts` holds the nested-conformance verdicts that rest on no
    cycle assumption: the DFS below them met no ``(entity, shape)`` still
    in progress and no per-root memo entry settled on such an assumption.
    Every memo entry that does rest on the optimistic cycle assumption
    stays in the per-root memo, exactly as in :meth:`ShaclValidator._check_entity`.
    """

    def __init__(self, schema: ShapeSchema, max_violations: int):
        super().__init__(schema, max_violations)
        #: Entity -> shape name -> assumption-free nested verdict.
        self.verdicts: dict[Subject, dict[str, bool]] = {}
        #: Per-root memo hits so far: a DFS rests on an assumption iff
        #: this count grew while it ran.
        self._assumptions = 0
        #: Nested checks computed / answered from :attr:`verdicts`.
        self.nested_checks = 0
        self.cache_hits = 0

    def check_focus(
        self, graph: Graph, entity: Subject, shape_name: str, report: ValidationReport
    ) -> None:
        """Check one focus node with a fresh memo; its own check always runs."""
        since = self._assumptions
        ok = self._check_entity(graph, entity, shape_name, report, {})
        if self._assumption_free(since):
            self.verdicts.setdefault(entity, {})[shape_name] = ok

    def forget(self, entities: Iterable[Subject]) -> None:
        """Drop every verdict of ``entities``."""
        verdicts = self.verdicts
        for entity in entities:
            verdicts.pop(entity, None)

    def _check_nested(
        self,
        graph: Graph,
        value: IRI,
        shape_name: str,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        key = (value, shape_name)
        provisional = memo.get(key)
        if provisional is not None:
            # In progress, or settled while something was: the caller's
            # verdict rests on the optimistic assumption too.
            self._assumptions += 1
            return provisional
        shared = self.verdicts.get(value)
        if shared is not None:
            verdict = shared.get(shape_name)
            if verdict is not None:
                self.cache_hits += 1
                return verdict
        self.nested_checks += 1
        since = self._assumptions
        sub_report = ValidationReport(conforms=True)
        ok = self._check_entity(graph, value, shape_name, sub_report, memo)
        if self._assumption_free(since):
            del memo[key]
            self.verdicts.setdefault(value, {})[shape_name] = ok
        return ok

    def _assumption_free(self, since: int) -> bool:
        """True when no per-root memo entry was consulted since ``since``."""
        return self._assumptions == since


class DeltaValidator:
    """Delta-scoped SHACL revalidation with a standing conformance report.

    Instead of re-running whole-graph validation after every change, the
    validator maintains a per-focus-node verdict table and, given the
    (added, removed) triples of a delta, recomputes only the focus nodes
    the delta can affect:

    * the **subjects** of every delta triple (their own property values
      or type targeting changed), and
    * transitively, every entity that **references** an affected node
      through a property whose shape carries a class or node-shape
      constraint (its conformance inspects the referenced node's types
      or nested conformance).

    The reachability uses only the shape registry's *reference paths*
    (property shapes whose value types carry ``sh:class`` or ``sh:node``
    constraints): those checks validate the referenced node's nested
    conformance, so any change to it — types or literal properties —
    can flip the referrer's verdict.  Deltas on nodes no reference path
    points at never fan out.  A delta that rewrites the
    ``rdfs:subClassOf`` taxonomy invalidates class membership globally
    and falls back to a full rebuild.

    Every focus node's own check runs with a fresh memo, as in
    ``ShaclValidator._check_entity(..., memo={})``.  Its nested
    ``sh:class``/``sh:node`` checks consult one verdict cache,
    ``(entity, shape) -> bool``, shared by every focus check and by
    :meth:`rebuild`.  Only *assumption-free* verdicts enter it: those
    whose DFS met no ``(entity, shape)`` still in progress and no memo
    entry that itself rests on one.  Cyclic references are broken by
    optimistically assuming conformance; a verdict resting on that
    assumption depends on where the DFS entered the cycle, so it stays
    in the per-root memo.  An assumption-free verdict is a function of
    the graph alone — every fresh-memo check reaches the same value
    wherever it meets the pair — so each focus node's violation list is
    still independent of the order entities are (re)checked.  Before a
    recheck, the verdicts of every affected entity are dropped: that set
    holds every entity whose nested verdict can change.  A rebuild drops
    them all.  The standing report after any delta sequence is therefore
    *equal* to the report a freshly built :class:`DeltaValidator`
    produces on the final graph, and its ``conforms`` flag matches
    :meth:`ShaclValidator.validate`.

    Args:
        schema: the shape schema ``S_G``.
        graph: the RDF graph to track; deltas must already be applied to
            it before :meth:`apply_delta` is called.
        max_violations: per-entity violation cap (see ShaclValidator).
    """

    def __init__(
        self,
        schema: ShapeSchema,
        graph: Graph,
        max_violations: int = 10_000,
    ):
        self.schema = schema
        self.graph = graph
        self._validator = _SharedVerdicts(schema, max_violations)
        self._targets = schema.target_classes()
        self._reference_paths = self._compute_reference_paths()
        #: Focus entity -> violations of all shapes targeting its types.
        self._entries: dict[Subject, tuple[Violation, ...]] = {}
        #: Focus nodes rechecked by the last apply_delta (or rebuild).
        self.last_rechecked = 0
        #: Cumulative focus-node checks over the validator's lifetime.
        self.total_rechecked = 0
        self.rebuild()

    def _compute_reference_paths(self) -> tuple[IRI, ...]:
        paths: set[str] = set()
        for shape in self.schema:
            for phi in self.schema.effective_property_shapes(shape.name):
                if any(not vt.is_literal() for vt in phi.value_types):
                    paths.add(phi.path)
        return tuple(IRI(path) for path in sorted(paths))

    @property
    def total_nested_checks(self) -> int:
        """Cumulative nested ``sh:class``/``sh:node`` checks computed."""
        return self._validator.nested_checks

    # ------------------------------------------------------------------ #

    def rebuild(self) -> None:
        """Recompute the standing report from scratch (full validation)."""
        self._validator.verdicts.clear()
        self._entries = {}
        checked = 0
        for entity in self._targeted_entities():
            self._entries[entity] = self._check(entity)
            checked += 1
        self.last_rechecked = checked
        self.total_rechecked += checked

    def _targeted_entities(self) -> Iterable[Subject]:
        seen: set[Subject] = set()
        for cls_iri in self._targets:
            for entity in self.graph.instances_of(IRI(cls_iri)):
                if entity not in seen:
                    seen.add(entity)
                    yield entity

    def _shapes_for(self, entity: Subject) -> list[str]:
        shapes = {
            self._targets[t.value]
            for t in self.graph.types_of(entity)
            if isinstance(t, IRI) and t.value in self._targets
        }
        return sorted(shapes)

    def _check(self, entity: Subject) -> tuple[Violation, ...]:
        violations: list[Violation] = []
        for shape_name in self._shapes_for(entity):
            report = ValidationReport(conforms=True)
            self._validator.check_focus(self.graph, entity, shape_name, report)
            violations.extend(report.violations)
        return tuple(violations)

    # ------------------------------------------------------------------ #

    def apply_delta(
        self,
        added: Iterable[Triple] = (),
        removed: Iterable[Triple] = (),
    ) -> int:
        """Recheck the focus nodes affected by an already-applied delta.

        Returns the number of focus nodes rechecked.
        """
        added = tuple(added)
        removed = tuple(removed)
        cache = self._validator
        nested, hits = cache.nested_checks, cache.cache_hits
        with obs.span("shacl.revalidate") as span:
            if any(t.p == _SUBCLASS_OF for t in (*added, *removed)):
                # Subclass-axiom changes shift class membership for every
                # ``sh:class`` check; delta scoping is unsound here.
                self.rebuild()
            else:
                seeds = {t.s for t in (*added, *removed)}
                affected = self.graph.referrers(seeds, self._reference_paths)
                # Every cached verdict the delta can change is one of these.
                cache.forget(affected)
                checked = 0
                for entity in affected:
                    if not self._shapes_for(entity):
                        self._entries.pop(entity, None)
                        continue
                    self._entries[entity] = self._check(entity)
                    checked += 1
                self.last_rechecked = checked
                self.total_rechecked += checked
            span.set("rechecked", self.last_rechecked)
            span.set("nested_checks", cache.nested_checks - nested)
            span.set("cache_hits", cache.cache_hits - hits)
        return self.last_rechecked

    # ------------------------------------------------------------------ #

    @property
    def focus_count(self) -> int:
        """Focus nodes currently tracked (= a full validation's targets)."""
        return len(self._entries)

    def report(self) -> ValidationReport:
        """The standing conformance report."""
        violations = [
            violation
            for entity in sorted(self._entries, key=str)
            for violation in self._entries[entity]
        ]
        return ValidationReport(
            conforms=not violations,
            violations=violations,
            checked_entities=len(self._entries),
        )

    @property
    def conforms(self) -> bool:
        """True when every tracked focus node conforms."""
        return all(not v for v in self._entries.values())

    def snapshot(self) -> dict[str, list[str]]:
        """Focus node -> sorted violation strings (comparison/persistence)."""
        return {
            str(entity): sorted(str(v) for v in violations)
            for entity, violations in self._entries.items()
        }
