"""Account-model transactions and internal transactions.

A regular transaction is a signed message from a sender account to a
receiver account (or to the null address for contract creation).
*Internal transactions* are contract-to-contract interactions produced
during execution; the paper defines them as "any interaction between
contracts that generates a so-called trace in the geth client ... and
which is not a regular or coinbase transaction" (§II-A).  They appear as
:class:`InternalTransaction` records attached to receipts, and the TDG
builder treats their (sender, receiver) pairs as additional edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.hashing import hash_fields

# The null address: contract-creation transactions send here, and the
# coinbase transaction originates here (cf. paper Fig. 1, "null" node).
NULL_ADDRESS = "0x" + "0" * 40


@dataclass(frozen=True, slots=True)
class InternalTransaction:
    """One geth-style trace entry: a call between two addresses.

    Attributes:
        sender: address initiating the call.
        receiver: address being called.
        value: wei transferred along the call.
        call_type: "call", "delegatecall", "create" or "transfer".
        depth: call-stack depth (top-level message calls are depth 1).
    """

    sender: str
    receiver: str
    value: int = 0
    call_type: str = "call"
    depth: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("internal transaction depth starts at 1")
        if self.value < 0:
            raise ValueError("value must be non-negative")


@dataclass(frozen=True, slots=True)
class AccountTransaction:
    """A regular (or coinbase) account-model transaction.

    Attributes:
        sender: originating address; NULL_ADDRESS for coinbase rewards.
        receiver: destination address; NULL_ADDRESS for contract creation.
        value: wei transferred.
        nonce: sender's transaction counter, enforced by the state layer.
        gas_limit: maximum gas the sender pays for.
        gas_price: price per gas unit (fee market not modelled further).
        data: call data / init code for contract interactions.
        is_coinbase: block-reward marker; coinbases are excluded from TDGs.
    """

    sender: str
    receiver: str
    value: int
    nonce: int
    tx_hash: str
    gas_limit: int = 21_000
    gas_price: int = 1
    data: str = field(default="", compare=False)
    is_coinbase: bool = False

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("value must be non-negative")
        if self.nonce < 0:
            raise ValueError("nonce must be non-negative")
        if self.gas_limit <= 0:
            raise ValueError("gas_limit must be positive")

    @property
    def is_contract_creation(self) -> bool:
        return not self.is_coinbase and self.receiver == NULL_ADDRESS


def make_account_transaction(
    *,
    sender: str,
    receiver: str,
    value: int,
    nonce: int,
    gas_limit: int = 21_000,
    gas_price: int = 1,
    data: str = "",
) -> AccountTransaction:
    """Build a regular transaction with a deterministic content hash."""
    tx_hash = hash_fields(
        "account-tx", sender, receiver, value, nonce, gas_limit, gas_price, data
    )
    return AccountTransaction(
        sender=sender,
        receiver=receiver,
        value=value,
        nonce=nonce,
        tx_hash=tx_hash,
        gas_limit=gas_limit,
        gas_price=gas_price,
        data=data,
    )


def make_coinbase_transaction(
    *, miner: str, reward: int, height: int
) -> AccountTransaction:
    """Build the block-reward transaction paid to *miner*."""
    tx_hash = hash_fields("account-coinbase", miner, reward, height)
    return AccountTransaction(
        sender=NULL_ADDRESS,
        receiver=miner,
        value=reward,
        nonce=0,
        tx_hash=tx_hash,
        gas_limit=21_000,
        is_coinbase=True,
    )
