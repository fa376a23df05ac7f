"""Every top-level function, class and method in ``src/`` has a caller.

A def counts as called when some file in ``src/``, ``benchmarks/`` or
``examples/`` names it: a ``Name``, an ``Attribute`` or a string
constant shaped like an identifier (``benchmarks/e2e/layers.py`` patches
entry points by name).  A method is reached through an object, so only
an ``Attribute`` or a string names it: a bare ``Name`` is some local
variable or parameter that happens to share its name.  An ``__all__``
list and a package re-export are not callers.  A def nothing names stays only with a reason in
:data:`KEEP`:

* k1 — a test uses it to check other code (an oracle, a fixture
  builder or a reference);
* k2 — PAPER.md or DESIGN.md names the formula or model it computes;
* k3 — an open ROADMAP item names it as the code it will call;
* k4 — a framework calls it by protocol.
"""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

KEEP = {
    "repro.account.receipts.Receipt.trace_count":
        "k1: the workload and VM tests count each receipt's traces",
    "repro.account.state.WorldState.total_supply":
        "k1: oracle for value conservation in the VM and workload tests",
    "repro.account.trie.StateTrie.delete":
        "k3: account/trie.py is the value root of ROADMAP item 15",
    "repro.account.trie.StateTrie.prove":
        "k3: account/trie.py is the value root of ROADMAP item 15",
    "repro.account.trie.StateTrie.verify_proof":
        "k3: account/trie.py is the value root of ROADMAP item 15",
    "repro.analysis.stats.ConfidenceInterval.width":
        "k1: the bootstrap tests check that intervals narrow with it",
    "repro.analysis.stats.series_with_ci":
        "k3: ROADMAP item 10(c) adds its intervals to Figs. 4, 5 and 7",
    "repro.chain.ledger.Ledger.block_at":
        "k1: the pipeline tests fetch the block they check",
    "repro.chain.ledger.Ledger.verify_links":
        "k1: the workload tests check the builders' hash links with it",
    "repro.chain.merkle.MerkleTree.proof":
        "k1: its inclusion proofs check that the tree's levels commit "
        "every leaf to the root",
    "repro.chain.merkle.MerkleTree.verify":
        "k1: checks the proofs MerkleTree.proof builds",
    "repro.chain.transaction.TransactionStub":
        "k1: fixture transaction of the block, ledger and fork-choice tests",
    "repro.consensus.pbft.PBFTCommittee.expected_messages_per_round":
        "k2: DESIGN.md's PBFT round/message model",
    "repro.consensus.pbft.consensus_vs_execution_share":
        "k2: DESIGN.md's PBFT model against execution time (§II-C)",
    "repro.core.interblock.account_window_concurrency":
        "k1: reference for sliding_window_speedups in the window tests",
    "repro.core.interblock.utxo_window_concurrency":
        "k1: reference for sliding_window_speedups in the window tests",
    "repro.core.speedup.group_speedup_with_overhead":
        "k2: DESIGN.md's K-corrected Eq. 2",
    "repro.core.tdg.utxo_tdg_from_arrays":
        "k1, k2: DESIGN.md's Fig. 2 two-array interface; reference for "
        "utxo_tdg and the UDF port in the TDG and query tests",
    "repro.economics.verifier.expected_reward_skipper":
        "k2: DESIGN.md's §II-C Verifier's Dilemma game; k1: oracle for "
        "verification_equilibrium",
    "repro.economics.verifier.expected_reward_verifier":
        "k2: DESIGN.md's §II-C Verifier's Dilemma game; k1: oracle for "
        "verification_equilibrium",
    "repro.execution.dag.DependencyDAG.add_edge":
        "k1: builds the DAGs the schedule tests check",
    "repro.execution.dag.DependencyDAG.add_task":
        "k1: builds the DAGs the schedule tests check",
    "repro.network.gossip.BoundedSeenCache.evictions":
        "k1: the node soak test checks that relay caches evicted",
    "repro.network.gossip.GossipNetwork.degree":
        "k1: the topology test checks connect's adjacency with it",
    "repro.node.runtime.SimQueue.qsize":
        "k1: the wire tests drain what a node relayed with it",
    "repro.node.transport._FrameReader.connection_lost":
        "k4: asyncio.Protocol callback",
    "repro.node.transport._FrameReader.connection_made":
        "k4: asyncio.Protocol callback",
    "repro.node.transport._FrameReader.data_received":
        "k4: asyncio.Protocol callback",
    "repro.obs.lifecycle.LifecycleTracer.open_count":
        "k1: the node network test checks that every trace closed",
    "repro.obs.lifecycle.TraceContext.child":
        "k1: derives the contexts the process-pool round-trip test checks",
    "repro.sharding.committee.CommitteeAssignment":
        "k2: DESIGN.md's PoW-based committee assignment",
    "repro.sharding.committee.CommitteeAssignment.assign":
        "k2: DESIGN.md's PoW-based committee assignment",
    "repro.sharding.zilliqa.ShardedChainBuilder.build_tx_block":
        "k2: DESIGN.md's DS committee aggregation; no cross-shard "
        "transactions (§II-B)",
    "repro.staticcheck.absint.ProgramSummary.errors":
        "k1: the abstract interpreter's tests read its error diagnostics",
    "repro.staticcheck.cfg.CFG.block_starting_at":
        "k1: the CFG tests check the built blocks through it",
    "repro.staticcheck.interproc.ClosedAccess.covers_endpoint":
        "k1: oracle of the soundness property",
    "repro.staticcheck.interproc.ClosedAccess.covers_read":
        "k1: oracle of the soundness property",
    "repro.staticcheck.interproc.ClosedAccess.covers_write":
        "k1: oracle of the soundness property",
    "repro.staticcheck.lattice.MaySet.covers":
        "k1: the widening tests check ⊤ with it",
    "repro.utxo.script.p2pkh_script":
        "k1: builds the scripts the spend and validation tests check",
    "repro.utxo.utxo_set.UTXOSet.total_value":
        "k1: oracle for value conservation in the UTXO and workload tests",
    "repro.utxo.validation.validate_block_transactions":
        "k3: utxo/validation.py is what ROADMAP item 11(b) calls",
    "repro.vm.contract.busy_loop_asm":
        "k1: builds the contract the VM's out-of-gas test runs",
    "repro.vm.contract.proxy_asm":
        "k1: builds the contract the VM's nested-call test runs",
    "repro.workload.zipf.ZipfSampler.probability_of":
        "k1: reads the CDF ZipfSampler.create builds, in the sampler tests",
}


def _python_files(root: Path, folder: str) -> list[Path]:
    return sorted((root / folder).rglob("*.py"))


def _names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names *tree* refers to, outside its ``__all__`` lists: bare
    ``Name``s, and the names of attributes and identifier strings."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node))
    bare: set[str] = set()
    reached: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER.match(node.value)
        ):
            reached.add(node.value)
    return bare, reached


def _defs(tree: ast.Module, module: str):
    """(qualified name, bare name, is a method) of each top-level def
    and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]):
                    yield (
                        f"{module}.{node.name}.{member.name}", member.name,
                        True,
                    )


def uncalled(root: Path = ROOT) -> list[str]:
    """Qualified names of the defs in ``root/src`` that nothing names."""
    bare: set[str] = set()
    reached: set[str] = set()
    for folder in SCANNED:
        for path in _python_files(root, folder):
            names = _names(ast.parse(path.read_text(encoding="utf-8")))
            bare |= names[0]
            reached |= names[1]
    found = []
    for path in _python_files(root, "src"):
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, method in _defs(tree, module):
            dunder = name.startswith("__") and name.endswith("__")
            named = name in reached or (not method and name in bare)
            if not dunder and not named:
                found.append(qualified)
    return found


def test_every_def_has_a_caller_or_a_reason():
    unexplained = [name for name in uncalled() if name not in KEEP]
    assert unexplained == [], (
        "defs nothing in src/, benchmarks/ or examples/ names; give each "
        "a caller, delete it, or add it to KEEP with its reason"
    )


def test_every_kept_name_still_needs_its_reason():
    stale = sorted(set(KEEP) - set(uncalled()))
    assert stale == [], "now called or gone: drop these from KEEP"


def test_the_scan_catches_a_planted_uncalled_function(tmp_path):
    for folder in SCANNED:
        shutil.copytree(
            ROOT / folder, tmp_path / folder,
            ignore=lambda _dir, names: [
                name for name in names
                if "." in name and not name.endswith(".py")
            ],
        )
    target = tmp_path / "src" / "repro" / "core" / "speedup.py"
    with target.open("a", encoding="utf-8") as out:
        out.write("\n\ndef planted_and_never_called():\n    return 0\n")
    assert set(uncalled(tmp_path)) - set(uncalled()) == {
        "repro.core.speedup.planted_and_never_called"
    }
