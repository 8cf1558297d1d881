"""Specification texts the benchmark sends, built without importing ``repro``.

A :class:`SpecModel` is a DTD (element content models and attribute lists)
plus a constraint list, all as text.  ``renamed(prefix)`` prefixes every
element type name, which is how the seed varies inputs without changing
their shape: the answer of a renamed spec is the answer of the original.

The families mirror the program's own workload generators
(``star_schema_family``, ``registrar_mus_family``, ``wide_flat_dtd``) but are
written out here, so a change to the program's generators cannot change the
benchmark's inputs or their known answers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
_KEYWORDS = {"EMPTY", "ANY"}
CONSTRAINT = re.compile(
    r"^\s*(?P<t1>[\w.\-]+?)\.(?P<a1>[\w\-]+)\s*(?P<op>!->|->|=>|!<=|<=)\s*"
    r"(?P<t2>[\w.\-]+?)(?:\.(?P<a2>[\w\-]+))?\s*$"
)

DATA = Path(__file__).resolve().parent / "data"


def rename_model(model: str, rename) -> str:
    """A content model with every element name mapped through ``rename``."""

    def sub(match: re.Match) -> str:
        word = match.group(0)
        start = match.start()
        if word in _KEYWORDS or (start > 0 and model[start - 1] == "#"):
            return word
        return rename(word)

    return _NAME.sub(sub, model)


def parse_constraint(line: str) -> tuple[str, str, str, str | None, str | None]:
    """``(op, t1, a1, t2, a2)`` of one unary constraint line."""
    match = CONSTRAINT.match(line)
    if match is None:
        raise ValueError(f"not a unary constraint: {line!r}")
    return (
        match.group("op"),
        match.group("t1"),
        match.group("a1"),
        match.group("t2"),
        match.group("a2"),
    )


def render_constraint(op: str, t1: str, a1: str, t2: str, a2: str | None) -> str:
    if op in ("->", "!->"):
        return f"{t1}.{a1} {op} {t2}"
    return f"{t1}.{a1} {op} {t2}.{a2}"


@dataclass(frozen=True)
class SpecModel:
    root: str
    elements: dict[str, str]
    attrs: dict[str, list[str]] = field(default_factory=dict)
    constraints: list[str] = field(default_factory=list)

    def renamed(self, prefix: str) -> "SpecModel":
        def name(word: str) -> str:
            return prefix + word

        return SpecModel(
            root=name(self.root),
            elements={
                name(tau): rename_model(model, name)
                for tau, model in self.elements.items()
            },
            attrs={name(tau): list(names) for tau, names in self.attrs.items()},
            constraints=[rename_constraint(line, name) for line in self.constraints],
        )

    def dtd_text(self) -> str:
        order = [self.root] + [t for t in self.elements if t != self.root]
        lines = [f"<!ELEMENT {tau} {self.elements[tau]}>" for tau in order]
        for tau in order:
            names = self.attrs.get(tau)
            if names:
                decls = " ".join(f"{a} CDATA #REQUIRED" for a in names)
                lines.append(f"<!ATTLIST {tau} {decls}>")
        return "\n".join(lines) + "\n"

    def constraints_text(self) -> str:
        return "\n".join(self.constraints)


def rename_constraint(line: str, rename) -> str:
    op, t1, a1, t2, a2 = parse_constraint(line)
    return render_constraint(op, rename(t1), a1, rename(t2), a2)


_DECL = re.compile(r"<!(ELEMENT|ATTLIST)\s+([^\s>]+)\s+([^>]*)>")


def parse_dtd_text(text: str) -> tuple[str, dict[str, str], dict[str, list[str]]]:
    """``(root, elements, attrs)`` of DTD text in the form ``dtd_text`` writes
    (the first ``<!ELEMENT>`` is the root)."""
    root = None
    elements: dict[str, str] = {}
    attrs: dict[str, list[str]] = {}
    for kind, name, body in _DECL.findall(text):
        if kind == "ELEMENT":
            root = root or name
            elements[name] = body.strip()
        else:
            words = body.split()
            attrs[name] = [words[i] for i in range(0, len(words), 3)]
    if root is None:
        raise ValueError("DTD text declares no element")
    return root, elements, attrs


# -- families ------------------------------------------------------------------


def star_schema(dims: int, consistent: bool = True) -> SpecModel:
    """Fact/dimension schema, one foreign key per dimension.

    Consistent: ``r (fact+, dim0+, ...)``.  Inconsistent: one fact, each
    dimension exactly twice, and a mutual foreign key per dimension forcing
    ``|dim_i| <= |fact| = 1`` — ``dims`` disjoint conflicts, so a minimum
    repair costs exactly ``dims`` unit edits, one per dimension.
    """
    names = [f"dim{i}" for i in range(dims)]
    if consistent:
        root = "(" + ", ".join(["fact+"] + [f"{d}+" for d in names]) + ")"
    else:
        root = "(" + ", ".join(["fact"] + [f"({d}, {d})" for d in names]) + ")"
    elements = {"r": root, "fact": "EMPTY"}
    elements.update({d: "EMPTY" for d in names})
    attrs = {"fact": [f"ref{i}" for i in range(dims)]}
    attrs.update({d: ["id"] for d in names})
    constraints = []
    for i, d in enumerate(names):
        constraints.append(f"{d}.id -> {d}")
        constraints.append(f"fact.ref{i} => {d}.id")
        if not consistent:
            constraints.append(f"fact.ref{i} -> fact")
            constraints.append(f"{d}.id => fact.ref{i}")
    return SpecModel("r", elements, attrs, constraints)


def registrar(filler: int) -> SpecModel:
    """Two approvals per order, one auditor: the stamp key plus the foreign
    key into the auditor force ``|approval| <= 1`` — a 2-constraint MUS
    under ``filler`` innocent keys."""
    fill = [f"x{i}" for i in range(filler)]
    elements = {
        "orders": "(" + ", ".join(["order+", "auditor"] + [f"{x}*" for x in fill]) + ")",
        "order": "(approval, approval)",
        "approval": "EMPTY",
        "auditor": "EMPTY",
    }
    elements.update({x: "EMPTY" for x in fill})
    attrs = {"order": ["oid"], "approval": ["stamp"], "auditor": ["aid"]}
    attrs.update({x: ["k"] for x in fill})
    constraints = [
        "order.oid -> order",
        "approval.stamp -> approval",
        "approval.stamp => auditor.aid",
        "auditor.aid -> auditor",
    ] + [f"{x}.k -> {x}" for x in fill]
    return SpecModel("orders", elements, attrs, constraints)


REGISTRAR_MUS = ("approval.stamp -> approval", "approval.stamp => auditor.aid")


def inclusion_chain(types: int, links: int, attrs: tuple[str, ...] = ("x",)) -> SpecModel:
    """``r`` over ``types`` starred flat types; ``t0.x <= t1.x <= ... <= t{links}.x``.

    ``t_i.a <= t_j.b`` (``i != j``) is implied iff ``a = b = x`` and
    ``i < j <= links``: the chain's transitive closure, and nothing else,
    because every type is independently starred.
    """
    names = [f"t{i}" for i in range(types)]
    elements = {"r": "(" + ", ".join(f"{t}*" for t in names) + ")"}
    elements.update({t: "EMPTY" for t in names})
    constraints = [f"t{i}.x <= t{i + 1}.x" for i in range(links)]
    return SpecModel("r", elements, {t: list(attrs) for t in names}, constraints)


def chain_implied(links: int, i: int, a: str, j: int, b: str) -> bool:
    return a == b == "x" and i < j <= links


def frozen_specs(name: str) -> list[dict]:
    """Specs recorded from the program's seeded generators, with answers."""
    return json.loads((DATA / f"{name}.json").read_text())["specs"]


def model_from_record(record: dict) -> SpecModel:
    root, elements, attrs = parse_dtd_text(record["dtd"])
    return SpecModel(root, elements, attrs, list(record["constraints"]))
