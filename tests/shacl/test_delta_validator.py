"""Delta-scoped revalidation: standing report == full revalidation."""

import pytest

from repro.fuzz.oracles import _reference_snapshot
from repro.rdf import parse_turtle
from repro.rdf.ntriples import parse_line
from repro.rdf.terms import IRI
from repro.shacl import DeltaValidator, parse_shacl
from repro.shacl.validator import _SharedVerdicts, validate

SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :friend ; sh:nodeKind sh:IRI ; sh:class :Person ;
                sh:minCount 0 ] .
""")

PREFIX = "@prefix : <http://x/> .\n"
BASE = PREFIX + """
:a a :Person ; :name "A" ; :friend :b .
:b a :Person ; :name "B" .
:c a :Person ; :name "C" .
"""


def t(line: str):
    return parse_line(line)


def apply(graph, validator, added=(), removed=()):
    """Mutate the tracked graph, then inform the validator."""
    for triple in removed:
        graph.remove(triple)
    for triple in added:
        graph.add(triple)
    return validator.apply_delta(added=added, removed=removed)


class TestStandingReport:
    def test_initially_matches_full_validation(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        full = validate(graph, SHAPES)
        assert validator.conforms == full.conforms is True
        assert validator.focus_count == full.checked_entities == 3

    def test_violation_appears_and_clears(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        name_b = t('<http://x/b> <http://x/name> "B" .')
        apply(graph, validator, removed=(name_b,))
        assert not validator.conforms
        assert validator.conforms == validate(graph, SHAPES).conforms
        apply(graph, validator, added=(name_b,))
        assert validator.conforms

    def test_report_equals_fresh_rebuild_after_delta_sequence(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        history = [
            ((t("<http://x/d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),), ()),
            ((t("<http://x/c> <http://x/friend> <http://x/d> ."),), ()),
            ((), (t('<http://x/a> <http://x/name> "A" .'),)),
            ((t('<http://x/d> <http://x/name> "D" .'),), ()),
        ]
        for added, removed in history:
            apply(graph, validator, added=added, removed=removed)
            fresh = DeltaValidator(SHAPES, graph)
            assert validator.snapshot() == fresh.snapshot()
            assert validator.conforms == validate(graph, SHAPES).conforms

    def test_untyped_entity_leaves_the_report(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        apply(graph, validator, removed=(
            t("<http://x/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),
        ))
        assert validator.focus_count == 2
        assert validator.snapshot() == DeltaValidator(SHAPES, graph).snapshot()


class TestDeltaScoping:
    def test_sparse_delta_rechecks_strictly_fewer_nodes(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        checked = apply(graph, validator, removed=(
            t('<http://x/c> <http://x/name> "C" .'),
        ))
        # Only :c is affected — nobody references it.
        assert checked == 1
        assert checked < validator.focus_count

    def test_referencing_entities_are_rechecked(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        # De-typing :b invalidates :a's sh:class check on :friend.
        checked = apply(graph, validator, removed=(
            t("<http://x/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> ."),
        ))
        assert checked == 1  # :a (the referrer); :b leaves the report
        assert validator.focus_count == 2
        assert not validator.conforms
        assert validator.conforms == validate(graph, SHAPES).conforms

    def test_literal_change_fans_out_to_referrers(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        # A second name breaks :b's maxCount — and, because sh:class
        # validates nested conformance, :a's :friend check with it.
        checked = apply(graph, validator, added=(
            t('<http://x/b> <http://x/name> "B2" .'),
        ))
        assert checked == 2  # :b and its referrer :a
        assert not validator.conforms
        assert validator.snapshot() == DeltaValidator(SHAPES, graph).snapshot()

    def test_subclass_delta_triggers_full_rebuild(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        checked = apply(graph, validator, added=(
            t("<http://x/Admin> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/Person> ."),
        ))
        assert checked == validator.focus_count  # everything rechecked

    def test_recheck_counters_accumulate(self):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        initial = validator.total_rechecked
        assert initial == 3  # the constructor's full build
        apply(graph, validator, added=(
            t('<http://x/c> <http://x/name> "C2" .'),
        ))
        assert validator.last_rechecked == 1
        assert validator.total_rechecked == initial + 1


# --------------------------------------------------------------------- #
# Shared nested verdicts on cyclic schemas
# --------------------------------------------------------------------- #

SHAPE_PREFIXES = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
"""

#: Person and Org reference each other through sh:class.
CLASS_CYCLE = parse_shacl(SHAPE_PREFIXES + """
shapes:Person a sh:NodeShape ; sh:targetClass :Person ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ; sh:minCount 1 ] ;
  sh:property [ sh:path :worksFor ; sh:class :Org ] .
shapes:Org a sh:NodeShape ; sh:targetClass :Org ;
  sh:property [ sh:path :employs ; sh:class :Person ] .
""")

#: One shape whose :next values must conform to the shape itself.
NODE_SELF = parse_shacl(SHAPE_PREFIXES + """
shapes:Item a sh:NodeShape ; sh:targetClass :Item ;
  sh:property [ sh:path :label ; sh:datatype xsd:string ; sh:minCount 1 ] ;
  sh:property [ sh:path :next ; sh:node shapes:Item ] .
""")

RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

# Each fixture: (shapes, data, deltas).  Focus nodes are checked in the
# order their terms first appear, which the comments rely on.
FIXTURES = {
    # :acme is checked under :ann, which is in progress, so :acme's True
    # rests on :ann conforming; :ann then fails on its missing name, so a
    # cached True for :acme would wrongly clear :bob.
    "class_cycle": (CLASS_CYCLE, PREFIX + """
:ann a :Person ; :worksFor :acme .
:acme a :Org ; :employs :ann .
:bob a :Person ; :name "Bob" ; :worksFor :acme .
""", [
        ((t('<http://x/ann> <http://x/name> "Ann" .'),), ()),
        ((), (t('<http://x/ann> <http://x/name> "Ann" .'),)),
    ]),
    # The same trap through a sh:node self-reference (:z is checked
    # before :y), plus a self-loop.
    "node_self_reference": (NODE_SELF, PREFIX + """
:x a :Item .
:z a :Item ; :label "z" .
:y a :Item ; :label "y" ; :next :x .
:x :next :y .
:z :next :y .
:w a :Item ; :label "w" ; :next :w .
""", [
        ((t('<http://x/x> <http://x/label> "x" .'),), ()),
        ((), (t('<http://x/w> <http://x/label> "w" .'),)),
        ((), (t('<http://x/x> <http://x/label> "x" .'),)),
    ]),
    # A conforming three-member cycle with an outside referrer; the
    # second member then fails, after the first was accepted.
    "cycle_member_fails": (NODE_SELF, PREFIX + """
:a a :Item ; :label "a" ; :next :b .
:b a :Item ; :label "b" ; :next :c .
:c a :Item ; :label "c" ; :next :a .
:r a :Item ; :label "r" ; :next :a .
""", [
        ((), (t('<http://x/b> <http://x/label> "b" .'),)),
        ((t('<http://x/b> <http://x/label> "b" .'),), ()),
        ((), (t(f"<http://x/c> {RDF_TYPE} <http://x/Item> ."),)),
    ]),
    # A chain whose last member breaks: :A's verdict must follow.
    "chain": (NODE_SELF, PREFIX + """
:A a :Item ; :label "A" ; :next :B .
:B a :Item ; :label "B" ; :next :C .
:C a :Item ; :label "C" .
""", [
        ((), (t('<http://x/C> <http://x/label> "C" .'),)),
        ((t('<http://x/C> <http://x/label> "C" .'),), ()),
    ]),
}


def divergences(name: str) -> list[str]:
    """Replay fixture ``name``; every point where the standing report
    differs from the fresh-memo reference."""
    shapes, data, deltas = FIXTURES[name]
    graph = parse_turtle(data)
    validator = DeltaValidator(shapes, graph)
    found = []
    if validator.snapshot() != _reference_snapshot(shapes, graph):
        found.append("build")
    for i, (added, removed) in enumerate(deltas):
        apply(graph, validator, added=added, removed=removed)
        if validator.snapshot() != _reference_snapshot(shapes, graph):
            found.append(f"delta {i}")
    return found


class TestSharedVerdicts:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_standing_report_equals_fresh_memo_reference(self, name):
        assert divergences(name) == []

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_standing_report_equals_fresh_validator(self, name):
        shapes, data, deltas = FIXTURES[name]
        graph = parse_turtle(data)
        validator = DeltaValidator(shapes, graph)
        for added, removed in deltas:
            apply(graph, validator, added=added, removed=removed)
            assert validator.snapshot() == DeltaValidator(shapes, graph).snapshot()
            assert validator.conforms == validate(graph, shapes).conforms

    def test_fixtures_hold_violations_resting_on_a_cycle(self):
        shapes, data, _ = FIXTURES["class_cycle"]
        snapshot = DeltaValidator(shapes, parse_turtle(data)).snapshot()
        assert any("http://x/acme" in v for v in snapshot["http://x/bob"])

    def test_chain_break_updates_the_head(self):
        shapes, data, deltas = FIXTURES["chain"]
        graph = parse_turtle(data)
        validator = DeltaValidator(shapes, graph)
        assert validator.conforms
        (added, removed), (restore_added, restore_removed) = deltas
        assert apply(graph, validator, added=added, removed=removed) == 3
        head = validator.snapshot()["http://x/A"]
        assert any("http://x/B" in v for v in head)
        apply(graph, validator, added=restore_added, removed=restore_removed)
        assert validator.conforms

    def test_verdicts_are_shared_across_focus_nodes(self):
        shapes, data, deltas = FIXTURES["chain"]
        validator = DeltaValidator(shapes, parse_turtle(data))
        # :A's check computes :B and :C nested; :B's own check reuses :C
        # instead of recomputing it (a fresh memo per focus node: 3).
        assert validator.total_nested_checks == 2
        assert validator._validator.cache_hits == 1

    def test_tainted_verdicts_in_the_cache_break_a_fixture(self, monkeypatch):
        """Mutation check: caching every nested verdict, cycle assumptions
        included, makes the standing report diverge from the reference."""
        monkeypatch.setattr(
            _SharedVerdicts, "_assumption_free", lambda self, since: True
        )
        # The build checks focus nodes in a fixed order, so it diverges
        # deterministically; rechecks after a delta run in set order.
        assert "build" in divergences("class_cycle")
        assert "build" in divergences("node_self_reference")


class TestSubclassRebuild:
    SUBCLASS = t(
        "<http://x/Admin> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
        "<http://x/Person> ."
    )

    def test_rebuild_starts_from_an_empty_cache(self, monkeypatch):
        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        # A stale verdict that would fail :a's :friend check if it survived.
        validator._validator.verdicts[IRI("http://x/b")] = {
            "http://x/shapes#Person": False
        }
        seen: list[int] = []
        check = validator._check

        def spy(entity):
            seen.append(len(validator._validator.verdicts))
            return check(entity)

        monkeypatch.setattr(validator, "_check", spy)
        for added, removed in (((self.SUBCLASS,), ()), ((), (self.SUBCLASS,))):
            seen.clear()
            apply(graph, validator, added=added, removed=removed)
            assert seen[0] == 0
            assert validator.snapshot() == _reference_snapshot(SHAPES, graph)
            fresh = DeltaValidator(SHAPES, graph)
            assert validator.snapshot() == fresh.snapshot()
            assert validator._validator.verdicts == fresh._validator.verdicts
        assert validator.conforms


class TestRevalidationSpan:
    def test_span_carries_recheck_and_cache_counts(self):
        from repro import obs

        graph = parse_turtle(BASE)
        validator = DeltaValidator(SHAPES, graph)
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            with obs.span("cdc.batch") as batch:
                apply(graph, validator, added=(
                    t('<http://x/b> <http://x/name> "B2" .'),
                ))
        finally:
            obs.set_tracer(previous)
        spans = tracer.finished()
        (span,) = [s for s in spans if s.name == "shacl.revalidate"]
        assert span.parent_id == batch.span_id
        assert span.attributes["rechecked"] == 2
        # :b under :a: computed, or reused when :b itself went first.
        counts = span.attributes["nested_checks"], span.attributes["cache_hits"]
        assert counts in ((1, 0), (0, 1))
