"""Constraint satisfaction on XML trees: ``T |= phi`` (Section 2.2).

Keys compare attribute values by string equality and elements by node
identity; inclusion constraints compare value *lists*; foreign keys require
both of their components; negations hold when the corresponding positive
constraint fails *in the specific witnessed way* the paper defines (which
for these forms coincides with plain logical negation).

Every query walks the tree once: :meth:`XMLTree.label_index` gives all
``ext(tau)`` at once, and each ``(tau, attrs)`` side is reduced to a hashed
set of field tuples the first time a constraint asks for it (the
selector -> field-tuple model of XML Schema's ``xs:key``/``xs:keyref``).
Checking ``Sigma`` therefore costs one walk plus one pass over ``ext(tau)``
per distinct side: O(|T| + sum |phi|) for unary constraints.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.ast import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.xmltree.model import XMLTree


class _FieldTuples:
    """Hashed field-tuple sets over one label index of one tree.

    Lives for a single query: the tree is mutable, so neither the index
    nor the memoized sets outlive the call that built them.
    """

    __slots__ = ("_index", "_memo")

    def __init__(self, tree: XMLTree):
        self._index = tree.label_index()
        self._memo: dict[tuple[str, tuple[str, ...]], tuple[set, int, bool]] = {}

    def _side(self, element_type: str, attrs: tuple[str, ...]) -> tuple[set, int, bool]:
        """``(distinct tuples, complete rows, any row missing an attribute)``.

        In a DTD-conformant tree attributes are total, so incomplete rows
        only appear for malformed inputs; such a row never matches
        anything, which is the conservative reading.
        """
        side = (element_type, tuple(attrs))
        entry = self._memo.get(side)
        if entry is None:
            values: set[tuple[str, ...]] = set()
            complete = 0
            missing = False
            for node in self._index.get(element_type, ()):
                node_attrs = node.attrs
                try:
                    values.add(tuple(node_attrs[attr] for attr in attrs))
                except KeyError:
                    missing = True
                    continue
                complete += 1
            entry = self._memo[side] = (values, complete, missing)
        return entry

    def holds(self, phi: Constraint) -> bool:
        if isinstance(phi, Key):
            values, complete, _missing = self._side(phi.element_type, phi.attrs)
            return len(values) == complete
        if isinstance(phi, InclusionConstraint):
            child, _complete, missing = self._side(phi.child_type, phi.child_attrs)
            if missing:
                return False
            parent, _complete, _missing = self._side(phi.parent_type, phi.parent_attrs)
            return child <= parent
        if isinstance(phi, ForeignKey):
            return self.holds(phi.inclusion) and self.holds(phi.key)
        if isinstance(phi, NegKey):
            return not self.holds(phi.key)
        if isinstance(phi, NegInclusion):
            return not self.holds(phi.inclusion)
        raise TypeError(f"unknown constraint {phi!r}")


def satisfies(tree: XMLTree, phi: Constraint) -> bool:
    """Does ``tree |= phi``?

    >>> from repro.xmltree.builder import element
    >>> t = XMLTree(element("db", element("u", k="1"), element("u", k="1")))
    >>> satisfies(t, Key("u", ("k",)))
    False
    >>> satisfies(t, NegKey("u", "k"))
    True
    """
    return _FieldTuples(tree).holds(phi)


def satisfies_all(tree: XMLTree, constraints: Iterable[Constraint]) -> bool:
    """Does ``tree |= Sigma`` for every constraint in the collection?"""
    checker = _FieldTuples(tree)
    return all(checker.holds(phi) for phi in constraints)


def violations(tree: XMLTree, constraints: Iterable[Constraint]) -> list[Constraint]:
    """The subset of constraints the tree violates (for diagnostics)."""
    checker = _FieldTuples(tree)
    return [phi for phi in constraints if not checker.holds(phi)]
