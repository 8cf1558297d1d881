"""Tests for the Psi_DN / C_Sigma / set-representation encodings."""

import pytest

from repro.constraints.ast import InclusionConstraint, Key, NegInclusion, NegKey
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.dtd.simplify import simplify_dtd
from repro.encoding.cardinality import attr_var
from repro.encoding.combined import build_encoding, split_unary
from repro.encoding.dtd_system import encode_dtd, ext_var
from repro.encoding.setrep import (
    build_intersection_pattern_matrix,
    build_uv_matrices,
    has_set_representation,
)
from repro.errors import ComplexityLimitError, InvalidConstraintError
from repro.ilp.scipy_backend import solve_milp


class TestPsiD:
    def test_root_pinned_to_one(self, d1):
        psi = encode_dtd(simplify_dtd(d1))
        root_rows = [row for row in psi.system.rows if row.label == "root"]
        assert len(root_rows) == 1
        assert root_rows[0].rhs == 1

    def test_d1_solvable_with_teacher_subject_ratio(self, d1):
        # Any solution must satisfy |ext(subject)| = 2 |ext(teacher)|.
        psi = encode_dtd(simplify_dtd(d1))
        result = solve_milp(psi.system)
        assert result.feasible
        assert (
            result.values[ext_var("subject")]
            == 2 * result.values[ext_var("teacher")]
        )
        assert result.values[ext_var("teacher")] >= 1

    def test_d2_unsolvable(self, d2):
        # db -> foo, foo -> foo: ext(db)=1 forces ext(foo) = ext(foo) + 1.
        psi = encode_dtd(simplify_dtd(d2))
        assert solve_milp(psi.system).infeasible

    def test_edges_cover_occurrences(self, d1):
        psi = encode_dtd(simplify_dtd(d1))
        children = {child for _, _, child in psi.edges}
        assert "teacher" in children
        assert "subject" in children

    def test_self_only_type_gets_impossible_clause(self):
        d = DTD.build("r", {"r": "(a | b)", "a": "(a)", "b": "EMPTY"})
        psi = encode_dtd(simplify_dtd(d))
        impossible = [
            clause for clause in psi.clauses
            if clause.premise == "a" and not clause.alternatives
        ]
        assert impossible  # a -> a forces infinite descent


class TestCSigma:
    def test_key_row_equates_cardinalities(self, d1, sigma1):
        encoding = build_encoding(d1, sigma1)
        labels = [row.label for row in encoding.condsys.base.rows]
        assert "key:teacher.name" in labels
        assert "key:subject.taught_by" in labels
        assert any(label.startswith("ic:") for label in labels)

    def test_attr_bounds_for_all_pairs(self, d1):
        encoding = build_encoding(d1, [])
        labels = {row.label for row in encoding.condsys.base.rows}
        assert "attr-bound:teacher.name" in labels
        assert "attr-bound:subject.taught_by" in labels

    def test_requires_if_present_lists_attrs(self, d1):
        encoding = build_encoding(d1, [])
        assert encoding.condsys.requires_if_present["teacher"] == (
            attr_var("teacher", "name"),
        )

    def test_inclusion_adds_support_clause(self, d1, sigma1):
        encoding = build_encoding(d1, sigma1)
        assert any(
            clause.premise == "subject" and clause.alternatives == {"teacher"}
            for clause in encoding.condsys.clauses
        )

    def test_neg_key_forces_presence_and_strict_row(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
        encoding = build_encoding(d, parse_constraints("a.x !-> a"))
        assert "a" in encoding.condsys.forced_true
        neg_rows = [r for r in encoding.condsys.base.rows if "negkey" in r.label]
        assert len(neg_rows) == 1
        assert neg_rows[0].rhs == -1

    def test_multiattr_rejected(self, d3, sigma3):
        with pytest.raises(InvalidConstraintError, match="unary"):
            build_encoding(d3, sigma3)

    def test_split_unary_keeps_first_occurrence_order(self):
        """Hashed dedupe == the list-membership dedupe, order included,
        so encodings of specs with repeated constraints stay identical."""
        sigma = parse_constraints(
            "b.y -> b\na.x <= b.y\na.x -> a\nb.y -> b\na.x !-> a\n"
            "b.y <= a.x\na.x <= b.y\nb.y !<= a.x\na.x -> a\na.x !-> a\n"
            "b.y !<= a.x\nb.y <= a.x"
        )
        keys, inclusions, neg_keys, neg_inclusions = split_unary(sigma)

        def first_occurrences(kind):
            seen = [phi for phi in sigma if type(phi) is kind]
            return [phi for i, phi in enumerate(seen) if phi not in seen[:i]]

        assert keys == first_occurrences(Key)
        assert [str(phi) for phi in keys] == ["b.y -> b", "a.x -> a"]
        assert inclusions == first_occurrences(InclusionConstraint)
        assert [str(phi) for phi in inclusions] == ["a.x <= b.y", "b.y <= a.x"]
        assert neg_keys == first_occurrences(NegKey)
        assert neg_inclusions == first_occurrences(NegInclusion)

        d = DTD.build(
            "r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )
        deduped = keys + inclusions + neg_keys + neg_inclusions
        with_dups = build_encoding(d, sigma).condsys
        without = build_encoding(d, deduped).condsys
        assert with_dups.base.rows == without.base.rows
        assert with_dups.clauses == without.clauses
        assert with_dups.forced_true == without.forced_true


class TestSetRep:
    def test_block_built_only_with_negated_inclusions(self):
        d = DTD.build("r", {"r": "(a*, b*)", "a": "EMPTY", "b": "EMPTY"},
                      attrs={"a": ["x"], "b": ["y"]})
        without = build_encoding(d, parse_constraints("a.x <= b.y"))
        assert without.setrep is None
        with_neg = build_encoding(d, parse_constraints("a.x !<= b.y"))
        assert with_neg.setrep is not None
        assert with_neg.setrep.pairs == (("a", "x"), ("b", "y"))

    def test_cap_enforced(self):
        attrs = {f"t{i}": ["x"] for i in range(5)}
        content = {"r": "(" + ", ".join(f"t{i}*" for i in range(5)) + ")"}
        content.update({f"t{i}": "EMPTY" for i in range(5)})
        d = DTD.build("r", content, attrs=attrs)
        sigma = parse_constraints(
            "\n".join(f"t{i}.x !<= t{(i + 1) % 5}.x" for i in range(5))
        )
        with pytest.raises(ComplexityLimitError):
            build_encoding(d, sigma, max_setrep_attrs=3)

    def test_self_negated_inclusion_infeasible_row(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["x"]})
        encoding = build_encoding(d, parse_constraints("a.x !<= a.x"))
        assert any(
            "negic-self" in row.label for row in encoding.condsys.base.rows
        )


class TestIntersectionPatterns:
    def test_uv_matrices_of_actual_sets(self):
        sets = [{"p", "q"}, {"q"}, {"r"}]
        u, v = build_uv_matrices(sets)
        assert u[0][0] == 2 and u[1][1] == 1
        assert u[0][1] == 1 and v[0][1] == 1
        assert u[0][2] == 0 and v[0][2] == 2

    def test_real_uv_has_representation(self):
        u, v = build_uv_matrices([{"p", "q"}, {"q", "r"}, set()])
        assert has_set_representation(u, v)

    def test_impossible_uv_rejected(self):
        # |A0| = 1 via u00, but claims 2 elements outside A1 (v01 = 2).
        u = [[1, 0], [0, 1]]
        v = [[0, 2], [1, 0]]
        assert not has_set_representation(u, v)

    def test_w_matrix_shape_and_symmetry(self):
        u, v = build_uv_matrices([{"p"}, {"p", "q"}])
        w = build_intersection_pattern_matrix(u, v, big_k=10)
        assert len(w) == 4 and all(len(row) == 4 for row in w)
        for i in range(4):
            for j in range(4):
                assert w[i][j] == w[j][i]
