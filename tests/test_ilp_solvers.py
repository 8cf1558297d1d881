"""The scipy and exact ILP backends agree — unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.ilp.exact import solve_exact
from repro.ilp.model import LinearSystem
from repro.ilp.scipy_backend import lp_infeasible, solve_milp


def _both(system):
    return solve_milp(system), solve_exact(system)


class TestKnownSystems:
    def test_simple_feasible(self):
        system = LinearSystem()
        system.add_eq({"x": 1, "y": 1}, 5)
        system.add_ge({"x": 1}, 2)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] + result.values["y"] == 5
            assert result.values["x"] >= 2

    def test_simple_infeasible(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 1)
        system.add_ge({"x": 1}, 2)
        for result in _both(system):
            assert result.infeasible

    def test_parity_infeasibility(self):
        # 2x = 2y + 1 has no integer solution; LP relaxation is feasible.
        system = LinearSystem()
        system.add_eq({"x": 2, "y": -2}, 1)
        for result in _both(system):
            assert result.infeasible
        assert not lp_infeasible(system)

    def test_integrality_forces_larger_solution(self):
        # 3x >= 2, x integer: minimum is 1, not 2/3.
        system = LinearSystem()
        system.add_ge({"x": 3}, 2)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] == 1

    def test_empty_system_feasible(self):
        system = LinearSystem()
        for result in _both(system):
            assert result.feasible

    def test_constant_false_row(self):
        system = LinearSystem()
        system.add_ge({}, 1)
        for result in _both(system):
            assert result.infeasible

    def test_upper_bounds_respected(self):
        system = LinearSystem()
        system.add_ge({"x": 1, "y": 1}, 10)
        system.set_upper("x", 3)
        for result in _both(system):
            assert result.feasible
            assert result.values["x"] <= 3
            assert result.values["x"] + result.values["y"] >= 10

    def test_minimization_prefers_small(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 4)
        result = solve_milp(system)
        assert result.values["x"] == 4

    def test_objective_override(self):
        system = LinearSystem()
        system.add_ge({"x": 1, "y": 1}, 3)
        result = solve_milp(system, objective={"x": 1.0, "y": 10.0})
        assert result.feasible
        assert result.values["y"] == 0

    def test_exact_node_limit_raises(self):
        # 2x + 3y = 1 over nonnegative integers: the root LP is fractional
        # (gcd preprocessing cannot cut it), so branching is required and a
        # one-node budget must be reported as exhausted.
        system = LinearSystem()
        system.add_eq({"x": 2, "y": 3}, 1)
        with pytest.raises(SolverError):
            solve_exact(system, node_limit=1)

    def test_gcd_preprocessing_catches_divisibility(self):
        system = LinearSystem()
        system.add_eq({"x": 6, "y": 9}, 5)
        assert solve_exact(system).infeasible


class TestLpInfeasible:
    def test_definitely_infeasible_lp(self):
        system = LinearSystem()
        system.add_le({"x": 1}, 1)
        system.add_ge({"x": 1}, 3)
        assert lp_infeasible(system)

    def test_feasible_lp_not_pruned(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 3)
        assert not lp_infeasible(system)


@st.composite
def _random_systems(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(num_vars)]
    system = LinearSystem()
    for _ in range(num_rows):
        coeffs = {
            name: draw(st.integers(-3, 3)) for name in names
        }
        rhs = draw(st.integers(-6, 6))
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        if sense == "le":
            system.add_le(coeffs, rhs)
        elif sense == "ge":
            system.add_ge(coeffs, rhs)
        else:
            system.add_eq(coeffs, rhs)
    for name in names:
        system.ensure_var(name)
        system.set_upper(name, 8)  # keep brute force cheap
    return system


def _brute_force_feasible(system) -> bool:
    from itertools import product

    names = list(system.variables)
    for values in product(range(9), repeat=len(names)):
        assignment = dict(zip(names, values))
        if not system.check(assignment):
            return True
    return False


class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(system=_random_systems())
    def test_scipy_exact_and_brute_force_agree(self, system):
        expected = _brute_force_feasible(system)
        scipy_result = solve_milp(system)
        assert scipy_result.status in ("feasible", "infeasible")
        assert scipy_result.feasible == expected
        exact_result = solve_exact(system, node_limit=20000)
        assert exact_result.feasible == expected
        if expected:
            assert not system.check(scipy_result.values)
            assert not system.check(exact_result.values)


class TestToggleableRows:
    """Base-row (de)activation on both assembled backends (DESIGN.md §6)."""

    def _system(self):
        system = LinearSystem()
        system.add_ge({"x": 1}, 1, label="keep")      # always active
        blocking = system.add_le({"x": 1}, 0, label="toggle")
        return system, blocking

    def test_assembled_row_toggles_and_reactivation(self):
        from repro.ilp.assembled import AssembledSystem

        system, blocking = self._system()
        assembled = AssembledSystem(system)
        off = frozenset({blocking})
        # Alternate active/inactive several times: the engine state must
        # track the requested set, not just the first solve's.
        for _ in range(3):
            assert assembled.solve_int({}).status == "infeasible"
            relaxed = assembled.solve_int({}, inactive_rows=off)
            assert relaxed.status == "feasible"
            assert relaxed.values["x"] == 1
        status, _ = assembled.lp_probe({}, inactive_rows=off)
        assert status == "feasible"
        assert assembled.lp_probe({})[0] == "infeasible"
        assert assembled.assemblies == 1

    def test_assembled_check_and_materialize_skip_inactive(self):
        from repro.ilp.assembled import AssembledSystem

        system, blocking = self._system()
        assembled = AssembledSystem(system)
        off = frozenset({blocking})
        assert assembled.check_values({"x": 1}, {}, set(), off) == []
        assert assembled.check_values({"x": 1}, {}, set()) != []
        materialized = assembled.materialize({}, set(), off)
        assert materialized.num_rows == system.num_rows - 1
        assert solve_exact(materialized).feasible

    def test_exact_row_toggles_on_live_basis(self):
        from repro.ilp.exact import ExactAssembledSystem

        system, blocking = self._system()
        exact = ExactAssembledSystem(system)
        off = frozenset({blocking})
        for _ in range(3):
            assert exact.solve_int({}).status == "infeasible"
            relaxed = exact.solve_int({}, inactive_rows=off)
            assert relaxed.status == "feasible"
            assert relaxed.values["x"] == 1

    def test_exact_gcd_row_respects_toggle(self):
        from repro.ilp.exact import ExactAssembledSystem

        system = LinearSystem()
        gcd_row = system.add_eq({"x": 2}, 1, label="no-integer-point")
        exact = ExactAssembledSystem(system)
        assert exact.solve_int({}).status == "infeasible"
        relaxed = exact.solve_int({}, inactive_rows=frozenset({gcd_row}))
        assert relaxed.status == "feasible"

    def test_condsys_toggles_only_registered_rows(self):
        from repro.ilp.condsys import ConditionalSystem, solve_conditional_system
        from repro.oracles import solve_rebuild

        system = LinearSystem()
        always = system.add_eq({("ext", "r"): 1}, 1, label="root")
        blocking = system.add_le({("ext", "r"): 1}, 0, label="toggle")
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
            toggleable_rows=frozenset({blocking}),
        )
        for solve in (solve_conditional_system, solve_rebuild):
            result, _ = solve(cs)
            assert result.status == "infeasible"
            # Untoggleable rows stay active even under an empty active set.
            result, _ = solve(cs, active_rows=frozenset())
            assert result.status == "feasible"
            assert result.values[("ext", "r")] == 1
        assert always == 0  # stable ids are plain row indices

    def test_workspace_shares_one_assembly_across_subsets(self):
        from repro.ilp.condsys import (
            ConditionalSystem,
            SolveWorkspace,
            solve_conditional_system,
        )

        system = LinearSystem()
        system.add_ge({("ext", "r"): 1}, 1, label="root")
        toggles = [
            system.add_ge({("ext", "r"): 1}, bound, label=f"ge-{bound}")
            for bound in (2, 3)
        ]
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
            toggleable_rows=frozenset(toggles),
        )
        workspace = SolveWorkspace(cs.base)
        total_assemblies = 0
        for active in (frozenset(), frozenset({toggles[0]}), frozenset(toggles)):
            result, stats = solve_conditional_system(
                cs, active_rows=active, workspace=workspace
            )
            total_assemblies += stats.assemblies
            expected = max([1] + [3 if t == toggles[1] else 2 for t in active])
            assert result.feasible
            assert result.values[("ext", "r")] == expected
        assert total_assemblies == 1
        assert workspace.assemblies == 1

    def test_workspace_rejects_foreign_base(self):
        from repro.ilp.condsys import (
            ConditionalSystem,
            SolveWorkspace,
            solve_conditional_system,
        )

        system = LinearSystem()
        system.add_eq({("ext", "r"): 1}, 1)
        cs = ConditionalSystem(
            base=system,
            ext_var={"r": ("ext", "r")},
            root="r",
            element_types=("r",),
            edges=(),
        )
        with pytest.raises(SolverError, match="different base"):
            solve_conditional_system(
                cs, workspace=SolveWorkspace(system.copy())
            )
