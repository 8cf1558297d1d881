"""repro — XML integrity constraints in the presence of DTDs.

A faithful, executable reproduction of Wenfei Fan and Leonid Libkin,
*On XML Integrity Constraints in the Presence of DTDs* (PODS 2001; full
version JACM 49(3), 2002): the consistency and implication problems for
XML keys, foreign keys and inclusion constraints interacting with DTDs.

Quickstart::

    from repro import DTD, parse_constraints, check_consistency

    d1 = DTD.build(
        "teachers",
        {"teachers": "(teacher+)", "teacher": "(teach, research)",
         "teach": "(subject, subject)", "subject": "(#PCDATA)",
         "research": "(#PCDATA)"},
        attrs={"teacher": ["name"], "subject": ["taught_by"]},
    )
    sigma1 = parse_constraints('''
        teacher.name -> teacher
        subject.taught_by -> subject
        subject.taught_by => teacher.name
    ''')
    result = check_consistency(d1, sigma1)
    assert not result.consistent        # the paper's Section-1 example

See ``README.md`` for the tour, ``DESIGN.md`` for the system inventory,
and ``benchmarks/report.py`` for the per-figure reproduction record.
"""

from repro import api
from repro.analysis import (
    DiagnosticsReport,
    ExtentBounds,
    Repair,
    apply_repair,
    diagnose,
    extent_bounds,
    minimal_repair,
    mus,
    redundant_constraints,
)
from repro.checkers import (
    CheckerConfig,
    ConsistencyResult,
    ImplicationResult,
    bounded_consistency,
    check_consistency,
    check_consistency_primary,
    dtd_has_valid_tree,
    implies,
    implies_all,
    implies_primary,
)
from repro.constraints import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
    classify,
    parse_constraint,
    parse_constraints,
    satisfies,
    satisfies_all,
)
from repro.dtd import DTD, dtd_to_string, parse_dtd
from repro.errors import (
    ComplexityLimitError,
    InvalidConstraintError,
    InvalidDTDError,
    InvalidTreeError,
    ParseError,
    ReproError,
    SolverError,
    UndecidableProblemError,
)
from repro.xmltree import (
    Element,
    TextNode,
    XMLTree,
    conforms,
    element,
    parse_xml,
    text,
    tree_to_string,
)

from repro.api import Spec

__version__ = "1.0.0"

__all__ = [
    # the stable facade
    "api",
    "Spec",
    # models
    "DTD",
    "parse_dtd",
    "dtd_to_string",
    "XMLTree",
    "Element",
    "TextNode",
    "element",
    "text",
    "parse_xml",
    "tree_to_string",
    "conforms",
    # constraints
    "Constraint",
    "Key",
    "InclusionConstraint",
    "ForeignKey",
    "NegKey",
    "NegInclusion",
    "parse_constraint",
    "parse_constraints",
    "classify",
    "satisfies",
    "satisfies_all",
    # decision procedures
    "CheckerConfig",
    "ConsistencyResult",
    "ImplicationResult",
    "check_consistency",
    "check_consistency_primary",
    "dtd_has_valid_tree",
    "implies",
    "implies_all",
    "implies_primary",
    "bounded_consistency",
    # analysis
    "diagnose",
    "DiagnosticsReport",
    "mus",
    "redundant_constraints",
    "Repair",
    "minimal_repair",
    "apply_repair",
    "extent_bounds",
    "ExtentBounds",
    # errors
    "ReproError",
    "ParseError",
    "InvalidDTDError",
    "InvalidTreeError",
    "InvalidConstraintError",
    "UndecidableProblemError",
    "ComplexityLimitError",
    "SolverError",
    "__version__",
]
