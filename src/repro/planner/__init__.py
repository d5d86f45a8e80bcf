"""Query planning: expressions, CNF predicates, physical plans, costs."""

from repro.planner.cnf import (
    AtomicPredicate,
    Clause,
    ConjunctiveForm,
    extract_atom,
    to_cnf,
    to_nnf,
)
from repro.planner.cost import CostModel
from repro.planner.explain import explain
from repro.planner.selectivity import (
    atom_selectivity,
    clause_selectivity,
    estimate_result_rows,
    estimate_selectivity,
)
from repro.planner.simplify import SimplifiedForm, simplify_cnf
from repro.planner.expressions import (
    Frame,
    bare_resolver,
    evaluate,
    make_qualified_resolver,
)
from repro.planner.physical import (
    BroadcastTable,
    PhysicalPlan,
    ScanTask,
    build_plan,
    plan_fingerprint,
)

__all__ = [
    "AtomicPredicate",
    "BroadcastTable",
    "plan_fingerprint",
    "Clause",
    "ConjunctiveForm",
    "CostModel",
    "Frame",
    "PhysicalPlan",
    "ScanTask",
    "bare_resolver",
    "build_plan",
    "evaluate",
    "explain",
    "SimplifiedForm",
    "simplify_cnf",
    "atom_selectivity",
    "clause_selectivity",
    "estimate_result_rows",
    "estimate_selectivity",
    "extract_atom",
    "make_qualified_resolver",
    "to_cnf",
    "to_nnf",
]
