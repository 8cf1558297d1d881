"""Theorem 4.7: 0/1 linear integer programming -> XML consistency.

The variant of LIP used by the paper: given a 0/1 matrix ``A`` (m rows, n
columns), does ``Ax = 1`` (all right-hand sides 1) have a binary solution
``x ∈ {0,1}^n``? This is NP-complete; the Figure-4 construction turns an
instance into a DTD ``D`` and unary keys/foreign keys ``Sigma`` such that

    Ax = 1 has a binary solution  iff  (D, Sigma) is consistent.

Structure of the DTD (Figure 4): the root has one ``F_i`` child per row
and one ``b_i`` child per row; ``F_i`` has an ``X_ij`` child for each
``a_ij = 1``; each ``X_ij`` optionally holds a ``Z_ij`` (whose presence
encodes ``x_j = 1`` in row ``i``); a present ``Z_ij`` holds a ``VF_i``.
Constraints: the attribute ``v`` of ``VF_i`` is a key and exchanges
foreign keys with ``b_i.v`` — since there is exactly one ``b_i``, exactly
one ``VF_i`` exists, i.e. row ``i`` sums to exactly 1. Mutual foreign keys
between the ``Z_ij.A_ij`` across rows force all occurrences of ``x_j`` to
take the same value. At most one key is declared per element type, so the
instance satisfies the primary-key restriction (Corollary 4.8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from repro.constraints.ast import Constraint, ForeignKey, InclusionConstraint, Key
from repro.dtd.model import DTD
from repro.regex.ast import EPSILON, Concat, Name, Optional, Regex
from repro.xmltree.model import XMLTree


@dataclass(frozen=True)
class LIPInstance:
    """A 0/1 matrix ``A``; the question is binary solvability of ``Ax = 1``."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.matrix or not self.matrix[0]:
            raise ValueError("the matrix must be nonempty")
        width = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != width:
                raise ValueError("ragged matrix")
            if any(value not in (0, 1) for value in row):
                raise ValueError("matrix entries must be 0/1")

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0])


def brute_force_binary_solution(instance: LIPInstance) -> tuple[int, ...] | None:
    """Exhaustive oracle: a binary solution of ``Ax = 1``, or ``None``.

    >>> brute_force_binary_solution(LIPInstance(((1, 1),)))
    (0, 1)
    """
    for candidate in product((0, 1), repeat=instance.num_cols):
        if all(
            sum(a * x for a, x in zip(row, candidate)) == 1
            for row in instance.matrix
        ):
            return candidate
    return None


@dataclass
class LIPReduction:
    """The Figure-4 DTD and constraints for a LIP instance."""

    instance: LIPInstance
    dtd: DTD
    sigma: list[Constraint]
    z_type: dict[tuple[int, int], str]


def lip_to_xml(instance: LIPInstance) -> LIPReduction:
    """Build ``(D, Sigma)`` consistent iff ``Ax = 1`` has a binary solution.

    >>> red = lip_to_xml(LIPInstance(((1, 0), (0, 1))))
    >>> red.dtd.root
    'r'
    """
    m, n = instance.num_rows, instance.num_cols
    content: dict[str, Regex] = {}
    attrs: dict[str, list[str]] = {}
    z_type: dict[tuple[int, int], str] = {}

    f_types = [f"F{i}" for i in range(1, m + 1)]
    b_types = [f"b{i}" for i in range(1, m + 1)]
    content["r"] = Concat(tuple(Name(t) for t in f_types + b_types))
    for i in range(1, m + 1):
        row = instance.matrix[i - 1]
        x_children = [
            Name(f"X{i}_{j}") for j in range(1, n + 1) if row[j - 1] == 1
        ]
        content[f"F{i}"] = Concat(tuple(x_children)) if len(x_children) > 1 else (
            x_children[0] if x_children else EPSILON
        )
        content[f"b{i}"] = EPSILON
        content[f"VF{i}"] = EPSILON
        attrs[f"b{i}"] = ["v"]
        attrs[f"VF{i}"] = ["v"]
        for j in range(1, n + 1):
            if row[j - 1] == 1:
                content[f"X{i}_{j}"] = Optional(Name(f"Z{i}_{j}"))
                content[f"Z{i}_{j}"] = Name(f"VF{i}")
                attrs[f"Z{i}_{j}"] = [f"A{i}_{j}"]
                z_type[(i, j)] = f"Z{i}_{j}"

    dtd = DTD.build("r", content, attrs=attrs)

    sigma: list[Constraint] = []
    for i in range(1, m + 1):
        # |ext(VFi)| = |ext(bi)| = 1: row i sums to exactly one.
        sigma.append(Key(f"VF{i}", ("v",)))
        sigma.append(Key(f"b{i}", ("v",)))
        sigma.append(
            ForeignKey(InclusionConstraint(f"VF{i}", ("v",), f"b{i}", ("v",)))
        )
        sigma.append(
            ForeignKey(InclusionConstraint(f"b{i}", ("v",), f"VF{i}", ("v",)))
        )
    # All occurrences of x_j take the same value: mutual foreign keys among
    # the rows where column j occurs.
    for j in range(1, n + 1):
        rows_with_j = [
            i for i in range(1, m + 1) if instance.matrix[i - 1][j - 1] == 1
        ]
        for i in rows_with_j:
            sigma.append(Key(f"Z{i}_{j}", (f"A{i}_{j}",)))
        for i in rows_with_j:
            for k in rows_with_j:
                if i != k:
                    sigma.append(
                        ForeignKey(
                            InclusionConstraint(
                                f"Z{i}_{j}", (f"A{i}_{j}",),
                                f"Z{k}_{j}", (f"A{k}_{j}",),
                            )
                        )
                    )
    return LIPReduction(instance=instance, dtd=dtd, sigma=sigma, z_type=z_type)


def extract_binary_solution(
    reduction: LIPReduction, tree: XMLTree
) -> tuple[int, ...]:
    """Read the binary assignment off a witness tree.

    ``x_j = 1`` iff any ``Z_ij`` element is present.
    """
    n = reduction.instance.num_cols
    solution = [0] * n
    present = tree.label_index()
    for (_i, j), z_name in reduction.z_type.items():
        if z_name in present:
            solution[j - 1] = 1
    return tuple(solution)


def random_lip_instance(
    num_rows: int, num_cols: int, density: float = 0.5, seed: int = 0
) -> LIPInstance:
    """A seeded random 0/1 matrix with at least one 1 per row."""
    rng = random.Random(seed)
    matrix = []
    for _ in range(num_rows):
        row = [1 if rng.random() < density else 0 for _ in range(num_cols)]
        if not any(row):
            row[rng.randrange(num_cols)] = 1
        matrix.append(tuple(row))
    return LIPInstance(tuple(matrix))
