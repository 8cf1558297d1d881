"""The linear witness path: indexed verification and worklist DTD analyses.

Two kinds of checks:

* differentials — the worklist ``productive_types`` / ``usable_types`` /
  ``must_occur`` against the round-robin fixpoints they replaced, and the
  indexed ``violations`` / ``satisfies`` / ``satisfies_all`` against a
  per-constraint evaluator over ``XMLTree.ext``; both references are kept
  here as oracles;
* counts, not timings — verifying and valuing a star-schema witness walks
  the tree a constant number of times whatever ``|Sigma|`` is, and
  ``usable_types`` on the simplified DTD does ``O(|E|)`` weight-map work.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dtd.analysis as analysis
from repro.constraints.ast import (
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.constraints.satisfaction import satisfies, satisfies_all, violations
from repro.dtd.analysis import must_occur, productive_types, usable_types
from repro.dtd.model import DTD
from repro.encoding.combined import build_encoding
from repro.ilp.condsys import solve_conditional_system
from repro.regex.analysis import alphabet, can_derive_over, saturating_count
from repro.regex.ast import (
    EPSILON,
    TEXT,
    TEXT_SYMBOL,
    Concat,
    Name,
    Optional,
    Plus,
    Star,
    Union,
)
from repro.witness.synthesize import synthesize_witness
from repro.witness.values import assign_values
from repro.workloads.generators import star_schema_family
from repro.xmltree.model import Element, TextNode, XMLTree

_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- reference oracles: the round-robin fixpoints ------------------------------


def reference_productive(dtd: DTD, banned: str | None = None) -> frozenset[str]:
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        allowed = frozenset(productive) | {TEXT_SYMBOL}
        for tau in dtd.element_types:
            if tau in productive or tau == banned:
                continue
            if can_derive_over(dtd.content[tau], allowed):
                productive.add(tau)
                changed = True
    return frozenset(productive)


def reference_usable(dtd: DTD) -> frozenset[str]:
    productive = reference_productive(dtd)
    if dtd.root not in productive:
        return frozenset()
    usable: set[str] = {dtd.root}
    frontier = [dtd.root]
    allowed = productive | {TEXT_SYMBOL}
    while frontier:
        expr = dtd.content[frontier.pop()]
        for symbol in alphabet(expr) - {TEXT_SYMBOL}:
            if symbol in usable or symbol not in productive:
                continue
            weights = {s: 0 for s in allowed}
            weights[symbol] = 1
            count = saturating_count(expr, weights)
            if count is not None and count >= 1:
                usable.add(symbol)
                frontier.append(symbol)
    return frozenset(usable)


def reference_must_occur(dtd: DTD, tau: str) -> bool:
    return tau == dtd.root or dtd.root not in reference_productive(dtd, banned=tau)


# -- reference oracle: one ext() walk per constraint side ----------------------


def _rows(tree: XMLTree, element_type: str, attrs) -> list:
    rows = []
    for node in tree.ext(element_type):
        try:
            rows.append(tuple(node.attrs[attr] for attr in attrs))
        except KeyError:
            rows.append(None)
    return rows


def reference_satisfies(tree: XMLTree, phi) -> bool:
    if isinstance(phi, Key):
        seen = set()
        for row in _rows(tree, phi.element_type, phi.attrs):
            if row is None:
                continue
            if row in seen:
                return False
            seen.add(row)
        return True
    if isinstance(phi, InclusionConstraint):
        parent = {
            row for row in _rows(tree, phi.parent_type, phi.parent_attrs) if row is not None
        }
        return all(
            row is not None and row in parent
            for row in _rows(tree, phi.child_type, phi.child_attrs)
        )
    if isinstance(phi, ForeignKey):
        return reference_satisfies(tree, phi.inclusion) and reference_satisfies(tree, phi.key)
    if isinstance(phi, NegKey):
        return not reference_satisfies(tree, phi.key)
    if isinstance(phi, NegInclusion):
        return not reference_satisfies(tree, phi.inclusion)
    raise TypeError(phi)


# -- strategies ----------------------------------------------------------------


@st.composite
def dtds(draw) -> DTD:
    """Random DTDs: recursion, ``?``/``*``/``+``/``|``, unreachable types."""
    names = [f"t{i}" for i in range(draw(st.integers(2, 7)))]
    # Definition 2.1 keeps the root t0 out of every content model.  Three
    # in four leaves name a type, so recursion and unproductive types are
    # common.
    references = [Name(name) for name in names[1:]]
    leaves = st.sampled_from(references * 6 + [EPSILON, TEXT] * len(references))
    models = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: Concat(tuple(xs))),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: Union(tuple(xs))),
            inner.map(Star),
            inner.map(Plus),
            inner.map(Optional),
        ),
        max_leaves=6,
    )
    content = {name: draw(models) for name in names}
    return DTD.build(names[0], content)


LABELS = ("a", "b", "c")
ATTRS = ("x", "y")


@st.composite
def trees(draw) -> XMLTree:
    """Random trees with missing attributes (None rows) and repeated values."""

    def node(depth: int) -> Element:
        attrs = {
            attr: draw(st.sampled_from(("0", "1", "2")))
            for attr in ATTRS
            if draw(st.booleans())
        }
        element = Element(draw(st.sampled_from(LABELS)), attrs=attrs)
        if depth < 3:
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.integers(0, 4)) == 0:
                    element.children.append(TextNode("t"))
                else:
                    element.children.append(node(depth + 1))
        return element

    return XMLTree(node(0))


def _attr_lists(size: int):
    return st.permutations(ATTRS).map(lambda attrs: tuple(attrs[:size]))


@st.composite
def constraints(draw):
    size = draw(st.integers(1, 2))
    key = st.builds(Key, st.sampled_from(LABELS), _attr_lists(size))
    inclusion = st.builds(
        InclusionConstraint,
        st.sampled_from(LABELS), _attr_lists(size),
        st.sampled_from(LABELS), _attr_lists(size),
    )
    phi = draw(st.one_of(key, inclusion))
    if isinstance(phi, Key):
        if size == 1 and draw(st.booleans()):
            return NegKey(phi.element_type, phi.attrs[0])
        return phi
    wrap = draw(st.sampled_from(("plain", "fk", "neg")))
    if wrap == "fk":
        return ForeignKey(phi)
    if wrap == "neg" and size == 1:
        return NegInclusion(
            phi.child_type, phi.child_attrs[0], phi.parent_type, phi.parent_attrs[0]
        )
    return phi


# -- differentials -------------------------------------------------------------


class TestWorklistAnalysesMatchRoundRobin:
    @_settings
    @given(dtd=dtds())
    def test_productive_types(self, dtd):
        assert productive_types(dtd) == reference_productive(dtd)

    @_settings
    @given(dtd=dtds())
    def test_usable_types(self, dtd):
        assert usable_types(dtd) == reference_usable(dtd)

    @_settings
    @given(dtd=dtds())
    def test_must_occur(self, dtd):
        for tau in dtd.element_types:
            assert must_occur(dtd, tau) == reference_must_occur(dtd, tau), tau


    def test_usable_types_resets_the_probed_weight(self):
        # `a` is probed (weight 1) below r; below x it sits beside the dead
        # branch (s, d), which must not make s usable.
        dtd = DTD.build(
            "r",
            {"r": "(a, x)", "x": "((s, d) | a)", "a": "EMPTY", "s": "EMPTY", "d": "(d)"},
        )
        assert usable_types(dtd) == reference_usable(dtd) == {"r", "a", "x"}


class TestIndexedSatisfactionMatchesPerConstraint:
    @_settings
    @given(tree=trees(), sigma=st.lists(constraints(), max_size=8))
    def test_violations(self, tree, sigma):
        expected = [phi for phi in sigma if not reference_satisfies(tree, phi)]
        assert violations(tree, sigma) == expected
        assert satisfies_all(tree, sigma) == (not expected)
        for phi in sigma:
            assert satisfies(tree, phi) == reference_satisfies(tree, phi)

    @_settings
    @given(tree=trees())
    def test_label_index_is_ext(self, tree):
        index = tree.label_index()
        for label in LABELS:
            assert index.get(label, []) == tree.ext(label)
        assert sum(map(len, index.values())) == sum(1 for _ in tree.elements())


# -- counts --------------------------------------------------------------------


class _TreeWalks:
    """Counts tree traversals through the public ``XMLTree`` walkers."""

    def __init__(self, monkeypatch):
        self.calls = {"label_index": 0, "ext": 0, "nodes": 0}
        for name in self.calls:
            original = getattr(XMLTree, name)
            monkeypatch.setattr(XMLTree, name, self._counting(name, original))

    def _counting(self, name, original):
        def wrapper(tree, *args):
            self.calls[name] += 1
            return original(tree, *args)

        return wrapper


def _star_witness(dimensions: int):
    dtd, sigma = star_schema_family(dimensions, consistent=True)
    encoding = build_encoding(dtd, sigma)
    result, _stats = solve_conditional_system(encoding.condsys)
    assert result.feasible
    witness = synthesize_witness(encoding, result.values)
    return witness, encoding, result.values, sigma


class TestLinearity:
    def test_verification_and_values_walk_the_tree_a_constant_number_of_times(
        self, monkeypatch
    ):
        walks_by_size = {}
        for dimensions in (8, 128):
            witness, encoding, values, sigma = _star_witness(dimensions)
            walks = _TreeWalks(monkeypatch)
            assign_values(witness, encoding.dtd, encoding, values)
            assert violations(witness, sigma) == []
            walks_by_size[len(sigma)] = dict(walks.calls)
            monkeypatch.undo()
        assert sorted(walks_by_size) == [16, 256]
        # One label index per call, no ext()/nodes() walk, whatever |Sigma|.
        expected = {"label_index": 2, "ext": 0, "nodes": 0}
        assert walks_by_size == {16: expected, 256: expected}

    def test_usable_types_does_linear_weight_map_work(self, monkeypatch):
        dtd, sigma = star_schema_family(128, consistent=True)
        simple = build_encoding(dtd, sigma).simple.to_dtd()
        assert len(simple.element_types) == 645
        edges = sum(
            len(alphabet(simple.content[tau]) - {TEXT_SYMBOL}) for tau in simple.element_types
        )
        expected = reference_usable(simple)
        maps: dict[int, int] = {}
        probes = [0]
        tests = [0]

        def probe(expr, weights):
            probes[0] += 1
            maps[id(weights)] = len(weights)
            return saturating_count(expr, weights)

        def test(expr, allowed):
            tests[0] += 1
            return can_derive_over(expr, allowed)

        monkeypatch.setattr(analysis, "saturating_count", probe)
        monkeypatch.setattr(analysis, "can_derive_over", test)
        assert usable_types(simple) == expected
        # One weight map of at most |E| + 1 entries, reused by every probe,
        # and at most one probe per edge.
        assert len(maps) == 1
        assert probes[0] <= edges
        assert next(iter(maps.values())) <= len(simple.element_types) + 1
        # Productivity tests each type once plus once per productive child.
        assert tests[0] <= len(simple.element_types) + edges
        # Simple DTDs have at most two children per type, so both are O(|E|).
        assert edges <= 2 * len(simple.element_types)
