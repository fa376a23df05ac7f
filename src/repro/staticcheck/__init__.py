"""Static read/write-set analysis of contract bytecode.

An abstract interpreter over the mini-VM instruction set
(:mod:`repro.vm.opcodes`) that computes a **sound over-approximation**
of each program's storage keys, balance reads and call targets without
executing it.  The pipeline is:

1. :mod:`repro.staticcheck.cfg` — basic blocks and control-flow edges
   from the statically-known ``JUMP``/``JUMPI`` targets;
2. :mod:`repro.staticcheck.absint` — value-set propagation
   (:mod:`repro.staticcheck.valueset`) through the stack ops, widening
   any dynamic operand that does not enumerate to finitely many keys to
   ⊤ ("may touch anything in scope"), plus diagnostics (unreachable code,
   guaranteed stack underflow, out-of-range jumps, ⊤-widened sets);
3. :mod:`repro.staticcheck.interproc` — closes the per-program access
   sets over the :class:`~repro.vm.contract.CodeRegistry` call graph
   (``CALL``/``TRANSFER``, including proxy chains);
4. :mod:`repro.staticcheck.predict` — lifts closed access sets to
   per-transaction predicted read/write sets in the vocabulary of
   :func:`repro.execution.engine.tasks_from_account_block`, yielding a
   *statically predicted* TDG;
5. :mod:`repro.staticcheck.lint` — per-contract diagnostics for the
   ``repro.cli staticcheck`` subcommand.

Soundness invariant (property-tested in ``tests/staticcheck``): for any
program and any execution, the dynamically traced access set is a
subset of the statically computed one.  See ``docs/static_analysis.md``
for the design and the paper's ``K``-cost interpretation.
"""

from repro.staticcheck.absint import CallSite, ProgramSummary, analyze_program
from repro.staticcheck.cfg import CFG, BasicBlock, build_cfg
from repro.staticcheck.diagnostics import (
    JUMP_RANGE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    STACK_UNDERFLOW,
    TOP_WIDENED,
    UNREACHABLE,
    Diagnostic,
)
from repro.staticcheck.interproc import (
    ClosedAccess,
    ContractAnalyzer,
    code_bindings,
    known_call_targets,
    local_access,
)
from repro.staticcheck.lattice import TOP, Const, MaySet, Top
from repro.staticcheck.lint import (
    ContractReport,
    LintReport,
    lint_registry,
    render_lint_report,
)
from repro.staticcheck.predict import (
    PredictedAccess,
    expanded_tasks,
    predict_block,
    predict_transaction,
    predict_utxo_block,
    predicted_conflicts,
    predicted_tdg,
)
from repro.staticcheck.valueset import (
    StridedInterval,
    ValueSet,
    elements_of,
    from_values,
)

__all__ = [
    "CFG",
    "BasicBlock",
    "CallSite",
    "ClosedAccess",
    "Const",
    "ContractAnalyzer",
    "ContractReport",
    "Diagnostic",
    "JUMP_RANGE",
    "LintReport",
    "MaySet",
    "PredictedAccess",
    "ProgramSummary",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "STACK_UNDERFLOW",
    "StridedInterval",
    "TOP",
    "TOP_WIDENED",
    "Top",
    "UNREACHABLE",
    "ValueSet",
    "analyze_program",
    "build_cfg",
    "code_bindings",
    "elements_of",
    "expanded_tasks",
    "from_values",
    "known_call_targets",
    "lint_registry",
    "local_access",
    "predict_block",
    "predict_transaction",
    "predict_utxo_block",
    "predicted_conflicts",
    "predicted_tdg",
    "render_lint_report",
]
