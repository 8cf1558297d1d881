"""Reference oracles: the slow, simple engines the fast ones are checked
against.  No product module imports this one; tests and benchmarks do.

* :func:`solve_rebuild` decides a
  :class:`~repro.ilp.condsys.ConditionalSystem` by the from-scratch
  support search: one :class:`~repro.ilp.model.LinearSystem` rebuilt per
  node, rescan-to-fixpoint propagation, a fresh LP per prune, and cuts
  that die with their leaf.  It must always agree with
  :func:`repro.ilp.condsys.solve_conditional_system`.
* :func:`check_consistency_rebuild` wraps it with the product's encoding,
  witness synthesis and verification, sharing no search code with
  :func:`repro.checkers.consistency.check_consistency`.

The rebuild-per-subset diagnostics and repair engines double as the
automatic fallback outside the unary fragment, so they stay in
:mod:`repro.analysis` (``_diagnose_rebuild``, ``_minimal_repair_rebuild``
and friends), where tests call them directly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import replace

from repro.budget import check_deadline
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import _verify
from repro.checkers.results import ConsistencyResult
from repro.constraints.ast import Constraint
from repro.constraints.classes import (
    ConstraintClass,
    classify,
    validate_constraints,
)
from repro.dtd.model import DTD
from repro.encoding.combined import build_encoding
from repro.errors import (
    ComplexityLimitError,
    SolverError,
    UndecidableProblemError,
)
from repro.ilp.condsys import (
    CondSolveStats,
    ConditionalSystem,
    _branching_order,
    _connectivity_cut,
    _unreachable_positive,
)
from repro.ilp.exact import ExactStats, solve_exact
from repro.ilp.model import LinearSystem, SolveResult
from repro.ilp.scipy_backend import lp_infeasible, solve_milp_certified
from repro.witness.synthesize import synthesize_witness
from repro.witness.values import make_all_values_distinct

#: The ``method`` every :func:`check_consistency_rebuild` result carries.
REBUILD_METHOD = "rebuild"


def _support_rows(
    cs: ConditionalSystem, assignment: Mapping[str, bool | None]
) -> LinearSystem:
    """The base rows plus the decided supports as rows: the leaf ILP once
    every support is decided, the pruning relaxation before."""
    rows = cs.base.copy()
    for tau, decided in assignment.items():
        ext = cs.ext_var[tau]
        if decided:
            rows.add_ge({ext: 1}, 1, label=f"support:{tau}")
            for var in cs.requires_if_present.get(tau, ()):
                rows.add_ge({var: 1}, 1, label=f"attr-total:{tau}")
        elif decided is False:
            rows.add_eq({ext: 1}, 0, label=f"absent:{tau}")
    return rows


def propagate_rescan(
    cs: ConditionalSystem, assignment: dict[str, bool | None]
) -> bool:
    """Unit-propagate support clauses by rescanning to a fixpoint; False
    on conflict.  The oracle for the product's worklist propagator."""
    changed = True
    while changed:
        changed = False
        for clause in cs.clauses:
            if assignment.get(clause.premise) is not True:
                continue
            if any(assignment.get(a) is True for a in clause.alternatives):
                continue
            open_alts = [
                a for a in clause.alternatives if assignment.get(a) is None
            ]
            if not open_alts:
                return False
            if len(open_alts) == 1:
                assignment[open_alts[0]] = True
                changed = True
    return True


def _solve_leaf(
    cs: ConditionalSystem,
    leaf: LinearSystem,
    solve: Callable[[LinearSystem], SolveResult],
    stats: CondSolveStats,
    max_cut_rounds: int,
) -> SolveResult:
    """Solve a from-scratch leaf ILP, iterating connectivity cuts locally
    (they are discarded when the leaf is abandoned)."""
    for _ in range(max_cut_rounds):
        stats.leaves_solved += 1
        stats.assemblies += 1
        result = solve(leaf)
        if not result.feasible:
            return result
        unreachable = _unreachable_positive(cs, result.values)
        if not unreachable:
            return result
        cut = _connectivity_cut(cs, unreachable)
        if not cut:
            # No occurrence site can ever feed U from outside: with these
            # supports fixed positive, no tree exists.
            return SolveResult(
                "infeasible",
                message=f"positive types {sorted(unreachable)} cannot be connected",
            )
        stats.cuts_added += 1
        leaf.add_ge(cut, 1, label=f"connect:{','.join(sorted(unreachable)[:4])}")
    raise SolverError("connectivity cut loop did not converge")


def _make_solver(
    backend: str, exact_warm: bool, stats: CondSolveStats
) -> Callable[[LinearSystem], SolveResult]:
    """A robust solve function: scipy with exact fallback, or exact only.

    ``exact_warm`` selects basis reuse *within* each certified solve (a
    fresh system per leaf leaves no state to carry across calls); work
    counters land in ``stats``.
    """
    if backend not in ("exact", "scipy"):
        raise SolverError(f"unknown backend {backend!r}")

    def solve(system: LinearSystem) -> SolveResult:
        exact_stats = ExactStats()
        if backend == "exact":
            result = solve_exact(system, warm=exact_warm, stats=exact_stats)
        else:
            result = solve_milp_certified(
                system, exact_warm=exact_warm, exact_stats=exact_stats
            )
        stats.exact_nodes += exact_stats.nodes
        stats.exact_pivots += exact_stats.pivots
        stats.exact_warm_solves += exact_stats.warm_solves
        return result

    return solve


def solve_rebuild(
    cs: ConditionalSystem,
    backend: str = "scipy",
    max_support_nodes: int = 20000,
    max_cut_rounds: int = 200,
    lp_prune: bool = True,
    exact_warm: bool = True,
    active_rows: frozenset[int] | None = None,
    inactive_clauses: frozenset[int] = frozenset(),
) -> tuple[SolveResult, CondSolveStats]:
    """Decide ``cs`` by the from-scratch support search.

    Same contract as :func:`repro.ilp.condsys.solve_conditional_system`
    (``active_rows`` / ``inactive_clauses`` included: deactivated rows and
    clauses are simply absent from every rebuilt system), always
    sequential, no workspace.
    """
    stats = CondSolveStats()
    solve = _make_solver(backend, exact_warm, stats)
    inactive_rows = (
        cs.toggleable_rows - active_rows if active_rows is not None else frozenset()
    )
    if inactive_rows or inactive_clauses:
        cs = replace(
            cs,
            base=cs.base.copy(drop_rows=inactive_rows),
            clauses=tuple(
                clause
                for i, clause in enumerate(cs.clauses)
                if i not in inactive_clauses
            ),
        )

    if cs.forced_true & cs.forced_false:
        return SolveResult("infeasible", message="required type unusable"), stats
    assignment: dict[str, bool | None] = dict.fromkeys(cs.element_types)
    assignment.update(dict.fromkeys(cs.forced_true, True))
    assignment.update(dict.fromkeys(cs.forced_false, False))
    assignment[cs.root] = True
    if not propagate_rescan(cs, assignment):
        return SolveResult("infeasible", message="support propagation conflict"), stats

    # Shortcut: the maximal support (everything not forced out present) is
    # often feasible and found in one leaf solve.
    maximal = {
        tau: True if value is None else value for tau, value in assignment.items()
    }
    if propagate_rescan(cs, maximal):
        result = _solve_leaf(
            cs, _support_rows(cs, maximal), solve, stats, max_cut_rounds
        )
        if result.feasible:
            stats.shortcut_hit = True
            return result, stats

    order = _branching_order(cs)
    stack: list[dict[str, bool | None]] = [assignment]
    while stack:
        current = stack.pop()
        stats.dfs_nodes += 1
        if stats.dfs_nodes > max_support_nodes:
            raise ComplexityLimitError(
                f"support search exceeded {max_support_nodes} nodes"
            )
        check_deadline()
        if not propagate_rescan(cs, current):
            continue
        if lp_prune:
            stats.assemblies += 1
            if lp_infeasible(_support_rows(cs, current)):
                stats.lp_prunes += 1
                continue
        choice = next((tau for tau in order if current[tau] is None), None)
        if choice is None:
            result = _solve_leaf(
                cs, _support_rows(cs, current), solve, stats, max_cut_rounds
            )
            if result.feasible:
                return result, stats
            continue
        stack.append({**current, choice: False})
        stack.append({**current, choice: True})
    return SolveResult("infeasible", message="support search exhausted"), stats


def check_consistency_rebuild(
    dtd: DTD,
    sigma: Iterable[Constraint] = (),
    config: CheckerConfig | None = None,
) -> ConsistencyResult:
    """Is ``(dtd, sigma)`` consistent?  Decided by :func:`solve_rebuild`.

    Same classes and errors as
    :func:`~repro.checkers.consistency.check_consistency`, except that
    keys-only specifications are decided on the DTD's own encoding rather
    than by the emptiness check; ``config.jobs`` is ignored.  Every result
    carries ``method == REBUILD_METHOD``.

    >>> from repro.workloads.examples import teachers_dtd_d1, sigma1_constraints
    >>> result = check_consistency_rebuild(teachers_dtd_d1(), sigma1_constraints())
    >>> (result.consistent, result.method)
    (False, 'rebuild')
    """
    config = config or DEFAULT_CONFIG
    sigma = list(sigma)
    validate_constraints(dtd, sigma)
    cls = classify(sigma)
    if cls == ConstraintClass.K_FK:
        raise UndecidableProblemError(
            "consistency for multi-attribute keys and foreign keys is "
            "undecidable (Theorem 3.1)"
        )
    keys_only = cls in (ConstraintClass.EMPTY, ConstraintClass.K)
    encoding = build_encoding(
        dtd, [] if keys_only else sigma, max_setrep_attrs=config.max_setrep_attrs
    )
    result, stats = solve_rebuild(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
        exact_warm=config.exact_warm,
    )
    witness = None
    if result.feasible and config.want_witness:
        witness = synthesize_witness(encoding, result.values)
        if keys_only:
            make_all_values_distinct(witness, dtd)
        if config.verify_witness:
            _verify(witness, dtd, sigma)
    return ConsistencyResult(
        result.feasible,
        witness=witness,
        method=REBUILD_METHOD,
        message=result.message,
        stats={"dfs_nodes": stats.dfs_nodes, "leaves": stats.leaves_solved,
               "assemblies": stats.assemblies, "lp_prunes": stats.lp_prunes},
    )
