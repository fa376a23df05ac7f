"""Registry-wide lint reports built on the abstract interpreter.

This is the third consumer of the analyzer (after predicted TDGs and
analyzer-informed execution): a plain diagnostic surface for contract
authors, exposed as ``repro.cli staticcheck``.  A lint run analyzes
every program in a :class:`~repro.vm.contract.CodeRegistry` and rolls
the per-program diagnostics up into one report with deterministic
ordering and a conventional exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.staticcheck.absint import analyze_program
from repro.staticcheck.diagnostics import Diagnostic
from repro.vm.contract import CodeRegistry


@dataclass(frozen=True)
class ContractReport:
    """Lint findings for one registered program."""

    code_id: str
    num_instructions: int
    diagnostics: tuple[Diagnostic, ...]
    top_widened: bool
    num_widened_sites: int = 0
    num_resolved_sites: int = 0
    analysis_seconds: float = 0.0

    @property
    def num_errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.is_error)

    @property
    def num_warnings(self) -> int:
        return sum(1 for d in self.diagnostics if not d.is_error)

    @property
    def clean(self) -> bool:
        return not self.diagnostics


@dataclass(frozen=True)
class LintReport:
    """All contract reports of one lint run, ordered by code id."""

    contracts: tuple[ContractReport, ...]

    @property
    def num_errors(self) -> int:
        return sum(c.num_errors for c in self.contracts)

    @property
    def num_warnings(self) -> int:
        return sum(c.num_warnings for c in self.contracts)

    def exit_code(self, strict: bool = False) -> int:
        """Conventional exit status: 1 on errors (or any finding when
        *strict*), 0 otherwise."""
        if self.num_errors:
            return 1
        if strict and self.num_warnings:
            return 1
        return 0


def lint_registry(
    registry: CodeRegistry, code_ids: Iterable[str] | None = None
) -> LintReport:
    """Analyze every program in *registry* (or the given subset)."""
    selected = (
        registry.code_ids() if code_ids is None else tuple(sorted(code_ids))
    )
    contracts = []
    for code_id in selected:
        program = registry.get(code_id)
        if program is None:
            continue
        started = time.perf_counter()
        summary = analyze_program(program)
        elapsed = time.perf_counter() - started
        contracts.append(
            ContractReport(
                code_id=code_id,
                num_instructions=summary.num_instructions,
                diagnostics=summary.diagnostics,
                top_widened=summary.top_widened,
                num_widened_sites=len(summary.widened_sites),
                num_resolved_sites=len(summary.resolved_sites),
                analysis_seconds=elapsed,
            )
        )
    return LintReport(contracts=tuple(contracts))


def render_lint_report(report: LintReport, *, timings: bool = True) -> str:
    """Human-readable lint output, one diagnostic per line.

    The per-contract status line ends with a bracketed analysis-cost
    note (milliseconds plus the dynamic-operand site tally) appended
    *after* the status text, so downstream greps for e.g. ``: clean``
    keep matching.  Pass ``timings=False`` for byte-stable output.
    """
    lines: list[str] = []
    total_seconds = 0.0
    for contract in report.contracts:
        status = "clean" if contract.clean else (
            f"{contract.num_errors} error(s), "
            f"{contract.num_warnings} warning(s)"
        )
        total_seconds += contract.analysis_seconds
        note = ""
        if timings:
            note = (
                f" [{contract.analysis_seconds * 1000.0:.2f} ms, "
                f"{contract.num_resolved_sites} resolved / "
                f"{contract.num_widened_sites} widened site(s)]"
            )
        lines.append(
            f"{contract.code_id} "
            f"({contract.num_instructions} instructions): {status}{note}"
        )
        for diagnostic in contract.diagnostics:
            lines.append(f"  {diagnostic.render()}")
    summary_note = (
        f" in {total_seconds * 1000.0:.2f} ms" if timings else ""
    )
    lines.append(
        f"{len(report.contracts)} contract(s) checked: "
        f"{report.num_errors} error(s), {report.num_warnings} warning(s)"
        f"{summary_note}"
    )
    return "\n".join(lines)


__all__: Sequence[str] = (
    "ContractReport",
    "LintReport",
    "lint_registry",
    "render_lint_report",
)
