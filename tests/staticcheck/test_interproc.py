"""Interprocedural closure over the contract call graph."""

from __future__ import annotations

from repro.account.state import WorldState
from repro.staticcheck.interproc import (
    ClosedAccess,
    ContractAnalyzer,
    code_bindings,
)
from repro.vm.contract import CodeRegistry


def make_analyzer(bodies: dict[str, str], bindings: dict[str, str]):
    registry = CodeRegistry()
    for code_id, text in bodies.items():
        registry.register_assembly(code_id, text)
    return ContractAnalyzer(registry, bindings)


def test_code_bindings_reads_world_state():
    state = WorldState()
    state.account("aa").code_id = "token"
    state.account("bb").code_id = ""
    state.credit("cc", 5)
    assert code_bindings(state) == {"aa": "token"}


def test_closure_follows_proxy_chain():
    analyzer = make_analyzer(
        {
            "proxy": "call hop 0\nstop",
            "hop": "call db 0\nstop",
            "db": "push 1\nsstore hits\nstop",
        },
        {"proxy": "proxy", "hop": "hop", "db": "db"},
    )
    closed = analyzer.closed_access("proxy")
    assert ("db", "hits") in closed.storage_writes
    assert {"proxy", "hop", "db"} <= set(closed.internal_endpoints)
    assert not closed.is_top_widened


def test_call_cycle_converges():
    analyzer = make_analyzer(
        {
            "a": "push 1\nsstore ka\ncall bb 0\nstop",
            "b": "push 1\nsstore kb\ncall aa 0\nstop",
        },
        {"aa": "a", "bb": "b"},
    )
    closed_a = analyzer.closed_access("aa")
    closed_b = analyzer.closed_access("bb")
    assert ("aa", "ka") in closed_a.storage_writes
    assert ("bb", "kb") in closed_a.storage_writes
    assert closed_a.storage_writes == closed_b.storage_writes


def test_dynamic_call_target_escalates_to_global_top():
    analyzer = make_analyzer(
        {"evil": "sload t\ncall $ 0\nstop"},
        {"ee": "evil"},
    )
    closed = analyzer.closed_access("ee")
    assert closed.global_top
    assert closed.covers_write("anyone", "anything")
    assert closed.covers_endpoint("anyone")


def test_dynamic_transfer_target_widens_balances_not_global():
    analyzer = make_analyzer(
        {"payout": "sload payee\ntransfer $ 3\nstop"},
        {"pp": "payout"},
    )
    closed = analyzer.closed_access("pp")
    assert not closed.global_top
    assert closed.balance_write_top
    assert closed.endpoint_top
    assert closed.covers_endpoint("anyone")


def test_dynamic_storage_key_is_per_address_top():
    analyzer = make_analyzer(
        {
            "counter": "sload n\npush 1\nadd\nsstore n\npush 7\nsload n\n"
                       "sstore $\nstop",
            "caller": "call cc 0\nstop",
        },
        {"cc": "counter", "rr": "caller"},
    )
    closed = analyzer.closed_access("rr")
    # The widened storage key scopes to the *counter* address (the VM
    # scopes dynamic keys to the executing contract's own storage).
    assert closed.storage_write_top == frozenset({"cc"})
    assert closed.covers_write("cc", "12345")
    assert not closed.covers_write("rr", "12345")


def test_value_bearing_call_records_balance_writes():
    analyzer = make_analyzer(
        {"payer": "transfer sink 5\nstop"},
        {"pp": "payer"},
    )
    closed = analyzer.closed_access("pp")
    assert closed.balance_writes == frozenset({"pp", "sink"})
    assert closed.internal_endpoints == frozenset({"pp", "sink"})


def test_address_without_code_is_empty():
    analyzer = make_analyzer({}, {})
    assert analyzer.closed_access("nobody") == ClosedAccess()
    assert not analyzer.has_code("nobody")


def test_union_is_monotone():
    a = ClosedAccess(storage_reads=frozenset({("x", "k")}))
    b = ClosedAccess(global_top=True)
    merged = a.union(b)
    assert merged.global_top
    assert ("x", "k") in merged.storage_reads


def test_call_to_codeless_address_is_plain_endpoint():
    analyzer = make_analyzer(
        {"fan": "transfer sink0 0\ntransfer sink1 0\nstop"},
        {"ff": "fan"},
    )
    closed = analyzer.closed_access("ff")
    assert closed.internal_endpoints == frozenset({"ff", "sink0", "sink1"})
    assert closed.balance_writes == frozenset()
    assert not closed.is_top_widened


def test_routed_call_closure_stays_finite_under_valueset():
    """A branch-joined call target closes over exactly the two sinks,
    not over "any contract may run"."""
    from repro.vm.contract import ROUTE_SINK_ASM, routed_call_asm

    analyzer = make_analyzer(
        {
            "routed": routed_call_asm("sink_a", "sink_b"),
            "sink": ROUTE_SINK_ASM,
        },
        {"rt": "routed", "sink_a": "sink", "sink_b": "sink"},
    )
    assert analyzer.closed_access("rt") == ClosedAccess(
        storage_reads=frozenset({("rt", "toggle")}),
        storage_writes=frozenset(
            {("rt", "toggle"), ("sink_a", "hits"), ("sink_b", "hits")}
        ),
        internal_endpoints=frozenset({"rt", "sink_a", "sink_b"}),
    )


def test_routed_transfer_closure_stays_finite_under_valueset():
    """A branch-joined transfer target moves exactly the two payees'
    balances, not "any balance"."""
    from repro.vm.contract import routed_payout_asm

    analyzer = make_analyzer(
        {"pay": routed_payout_asm("payee_a", "payee_b")}, {"pp": "pay"}
    )
    assert analyzer.closed_access("pp") == ClosedAccess(
        storage_reads=frozenset({("pp", "toggle")}),
        storage_writes=frozenset({("pp", "toggle")}),
        balance_writes=frozenset({"pp", "payee_a", "payee_b"}),
        internal_endpoints=frozenset({"pp", "payee_a", "payee_b"}),
    )
