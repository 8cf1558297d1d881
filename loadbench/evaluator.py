"""An independent checker for witness trees and validation documents.

It reads the serialized XML with the standard library, matches each
element's child sequence against its content model compiled to a Python
regular expression, and evaluates keys, inclusions and foreign keys as
value-set containment.  It shares no code with the program, so a witness
the program wrongly believes valid is caught here.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter

from specs import SpecModel, parse_constraint

_TOKEN = re.compile(r"#PCDATA|[A-Za-z_][A-Za-z0-9_.\-]*|[(),|*+?]")


def _model_regex(model: str) -> re.Pattern:
    """Content model text -> regex over the child word ``<a><b>...``.

    Text content is not part of the child word: ``(#PCDATA)`` accepts no
    element children.
    """
    if model == "EMPTY":
        return re.compile("")
    if model == "ANY":
        return re.compile(r"(?:<[^>]+>)*")
    out = []
    for token in _TOKEN.findall(model):
        if token == ",":
            continue
        if token == "#PCDATA":
            out.append("(?:)")
        elif token in "()|*+?":
            out.append("(?:" if token == "(" else token)
        else:
            out.append(f"(?:<{re.escape(token)}>)")
    return re.compile("".join(out))


class Evaluator:
    """Checks XML documents against one :class:`SpecModel`."""

    def __init__(self, spec: SpecModel):
        self.spec = spec
        self.models = {tau: _model_regex(m) for tau, m in spec.elements.items()}
        self.constraints = [parse_constraint(line) for line in spec.constraints]

    def structure_errors(self, root: ET.Element) -> list[str]:
        errors = []
        if root.tag != self.spec.root:
            errors.append(f"root is {root.tag}, expected {self.spec.root}")
        for node in root.iter():
            model = self.models.get(node.tag)
            if model is None:
                errors.append(f"undeclared element {node.tag}")
                continue
            word = "".join(f"<{child.tag}>" for child in node)
            if not model.fullmatch(word):
                errors.append(f"children of {node.tag} do not match its content model")
            declared = set(self.spec.attrs.get(node.tag, ()))
            if set(node.attrib) != declared:
                errors.append(f"attributes of {node.tag} are not {sorted(declared)}")
        return errors

    def violated(self, root: ET.Element) -> list[str]:
        """The constraint lines the document violates."""
        values: dict[tuple[str, str], list[str]] = {}
        for node in root.iter():
            for attr, value in node.attrib.items():
                values.setdefault((node.tag, attr), []).append(value)
        out = []
        for line, (op, t1, a1, t2, a2) in zip(self.spec.constraints, self.constraints):
            left = values.get((t1, a1), [])
            if op in ("->", "!->"):
                unique = len(set(left)) == len(left)
                holds = unique if op == "->" else not unique
            else:
                right = values.get((t2, a2), [])
                contained = set(left) <= set(right)
                if op == "<=":
                    holds = contained
                elif op == "!<=":
                    holds = not contained
                else:  # "=>": inclusion plus a key on the target
                    holds = contained and len(set(right)) == len(right)
            if not holds:
                out.append(line)
        return out

    def witness_errors(self, xml_text: str) -> list[str]:
        """Every reason the text is not a model of the spec (empty if it is)."""
        try:
            root = ET.fromstring(xml_text)
        except ET.ParseError as exc:
            return [f"unparseable witness: {exc}"]
        return self.structure_errors(root) + [
            f"violates {line}" for line in self.violated(root)
        ]


def label_counts(xml_text: str) -> Counter:
    return Counter(node.tag for node in ET.fromstring(xml_text).iter())
