"""Synthetic account-chain history generation (Ethereum family, Zilliqa).

Builds a complete executed chain: transactions run against a live
:class:`repro.account.state.WorldState` through the contract VM, so
internal transactions, gas usage and storage access sets are *produced
by execution*, not sampled.  The traffic mix per block follows the
profile's era parameters:

* peer-to-peer transfers (mostly conflict-free);
* exchange deposits/withdrawals — fan-in/fan-out on a few hot addresses,
  the dominant conflict source (paper Fig. 1b's Poloniex example);
* contract calls — token transfers, proxy chains (depth-2 internal
  transactions like Fig. 1b's unverified-contract chain), and
  multi-call apps;
* contract creations — very high gas, essentially never conflicted,
  which is what pushes the gas-weighted conflict rate below the
  tx-weighted one (§IV-A);
* internal-transaction bursts modelling the 2017 underpriced-opcode DoS
  attacks (the spikes of Fig. 4a).

For sharded profiles (Zilliqa) the block's transaction intents are
routed through :class:`repro.sharding.zilliqa.ShardedChainBuilder`
first, which drops cross-shard contract calls and fixes the final
shard-major order before nonces are assigned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, unique

from repro.account.receipts import ExecutedTransaction
from repro.account.state import WorldState
from repro.account.transaction import (
    NULL_ADDRESS,
    AccountTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)
from repro.chain.block import GENESIS_PARENT, Block, build_block
from repro.chain.errors import ChainError
from repro.chain.hashing import address_from_seed
from repro.chain.ledger import Ledger
from repro.consensus.pow import Miner, PoWSimulator, make_pool_set
from repro.sharding.zilliqa import ShardedChainBuilder
from repro.vm.contract import (
    CONST_INDEXED_ASM,
    DYNAMIC_COUNTER_ASM,
    DYNAMIC_PAYOUT_ASM,
    ROUTE_SINK_ASM,
    TOGGLE_BRANCH_ASM,
    TOKEN_TRANSFER_ASM,
    CodeRegistry,
    routed_call_asm,
    routed_payout_asm,
)
from repro.vm.vm import VM
from repro.workload.actors import ActorPopulation
from repro.workload.profiles import ChainProfile
from repro.workload.zipf import ZipfSampler

ETHER = 10**18
FAUCET_BALANCE = 10**24
FUNDING_THRESHOLD = 10**21


@unique
class IntentKind(Enum):
    TRANSFER = "transfer"
    DEPOSIT = "deposit"
    WITHDRAWAL = "withdrawal"
    CONTRACT_CALL = "contract_call"
    CONTRACT_CREATION = "contract_creation"
    BURST_CALL = "burst_call"


@dataclass(frozen=True)
class TxIntent:
    """A planned transaction before nonce assignment and execution."""

    kind: IntentKind
    sender: str
    receiver: str
    value: int
    gas_limit: int
    data: str = ""


@dataclass
class AccountWorkloadBuilder:
    """Generates an executed account chain from a :class:`ChainProfile`."""

    profile: ChainProfile
    seed: int = 0
    scale: float = 1.0
    rng: random.Random = field(init=False)
    population: ActorPopulation = field(init=False)
    state: WorldState = field(init=False)
    registry: CodeRegistry = field(init=False)
    vm: VM = field(init=False)
    ledger: Ledger[AccountTransaction] = field(init=False)
    executed_blocks: list[tuple[Block, list[ExecutedTransaction]]] = field(
        init=False, default_factory=list
    )
    sharding: ShardedChainBuilder | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.profile.data_model != "account":
            raise ValueError(
                f"profile {self.profile.name!r} is not an account chain"
            )
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self.rng = random.Random(
            ("account", self.profile.name, self.seed).__repr__()
        )
        max_users = max(era.num_users for era in self.profile.eras)
        self.population = ActorPopulation.build(
            chain=self.profile.name,
            num_users=max_users,
            num_exchanges=self.profile.num_exchanges,
            num_pools=self.profile.num_pools,
            num_contracts=self.profile.num_contracts,
            user_zipf_exponent=self.profile.user_zipf_exponent,
        )
        self.state = WorldState()
        self.registry = CodeRegistry()
        self.vm = VM(self.registry)
        self.ledger = Ledger()
        self._exchange_sampler = ZipfSampler.create(
            max(1, self.profile.num_exchanges),
            self.profile.exchange_zipf_exponent,
        )
        self._setup_contracts()
        if self.profile.num_shards > 0:
            self.sharding = ShardedChainBuilder(
                num_shards=self.profile.num_shards,
                contract_addresses={
                    actor.address for actor in self.population.contracts
                },
            )

    # -- setup -------------------------------------------------------------

    def _make_miners(self) -> list[Miner]:
        names = self.profile.pool_names or ("pool0",)
        share = 1.0 / len(names)
        return make_pool_set(
            [(name, share) for name in names],
            address_prefix=f"{self.profile.name}-pool",
        )

    def _helper_address(self, label: str) -> str:
        return address_from_seed(f"{self.profile.name}|helper|{label}")

    def _setup_contracts(self) -> None:
        """Deploy the profile's contract population.

        Archetypes rotate: plain token (no internal txs), proxy chains
        (depth-2/3 internal txs, Fig. 1b's pattern), and multi-call apps.
        A dedicated "burst" contract models the 2017 DoS transactions.
        When the profile sets ``num_dynamic_contracts``, that many
        contracts (from the end of the population) use dynamic-operand
        bodies instead, exercising the static analyzer's ⊤-widening.
        """
        first_dynamic = (
            len(self.population.contracts)
            - self.profile.num_dynamic_contracts
        )
        for index, actor in enumerate(self.population.contracts):
            if index >= first_dynamic:
                self.state.account(actor.address).code_id = (
                    self._setup_dynamic_contract(index, actor.address)
                )
                continue
            archetype = index % 4
            if archetype == 0:
                code_id = f"token{index}"
                self.registry.register_assembly(code_id, TOKEN_TRANSFER_ASM)
            elif archetype == 1:
                # Depth-3 proxy chain, like Fig. 1b's unverified contract
                # that forwards to another contract that hits ElcoinDb.
                # The terminal db contract is *shared* between proxies
                # (Fig. 1b's ElcoinDb serves several callers), so calls
                # to different proxies can truly conflict through an
                # internal edge invisible to the approximate TDG (§V-C).
                hop1 = self._helper_address(f"hop1_{index}")
                hop2 = self._helper_address(f"hop2_{index}")
                db = self._helper_address(f"shared_db{index // 8}")
                self.registry.register_assembly(
                    f"shared_db{index // 8}", "push 1\nsstore hits\nstop"
                )
                self.registry.register_assembly(
                    f"hop2_{index}", f"call {db} 0\nstop"
                )
                self.registry.register_assembly(
                    f"hop1_{index}", f"call {hop2} 0\nstop"
                )
                self.state.account(hop1).code_id = f"hop1_{index}"
                self.state.account(hop2).code_id = f"hop2_{index}"
                self.state.account(db).code_id = f"shared_db{index // 8}"
                code_id = f"proxy{index}"
                self.registry.register_assembly(
                    code_id, f"call {hop1} 0\nstop"
                )
            else:
                # Multi-call apps: wide fans of internal transactions
                # (airdrops, batch payouts, DeFi-style composition).
                width = 8 if archetype == 2 else 12
                targets = [
                    self._helper_address(f"sink{index}_{slot}")
                    for slot in range(width)
                ]
                body = "\n".join(f"transfer {target} 0" for target in targets)
                code_id = f"multicall{index}"
                self.registry.register_assembly(code_id, body + "\nstop")
            self.state.account(actor.address).code_id = code_id

        # DoS burst contract: a wide fan of zero-value transfers.
        burst_targets = [
            self._helper_address(f"burst{slot}") for slot in range(16)
        ]
        burst_body = "\n".join(
            f"transfer {target} 0" for target in burst_targets
        )
        self.registry.register_assembly("burst", burst_body + "\nstop")
        self._burst_address = self._helper_address("burst-entry")
        self.state.account(self._burst_address).code_id = "burst"

    def _setup_dynamic_contract(self, index: int, address: str) -> str:
        """Deploy one dynamic-operand contract body.

        Six archetypes rotate: storage-flag branching (static analysis
        must take both arms), counter-keyed writes (storage write ⊤),
        storage-read transfer targets (balance/endpoint ⊤),
        constant-indexed access (dynamic forms that still resolve
        precisely), and two *routed* bodies whose branch arms push
        different constant targets — exactly resolved by the value-set
        lattice, where a single-constant domain would widen them to ⊤
        (the archetypes the analyser's precision turns on).
        """
        archetype = index % 6
        if archetype == 0:
            code_id = f"toggle{index}"
            self.registry.register_assembly(code_id, TOGGLE_BRANCH_ASM)
        elif archetype == 1:
            code_id = f"counter{index}"
            self.registry.register_assembly(code_id, DYNAMIC_COUNTER_ASM)
        elif archetype == 2:
            code_id = f"payout{index}"
            self.registry.register_assembly(code_id, DYNAMIC_PAYOUT_ASM)
            payee = self._helper_address(f"payee{index}")
            self.state.account(address).storage["payee"] = payee
            self.state.credit(address, FAUCET_BALANCE)
        elif archetype == 3:
            code_id = f"constidx{index}"
            self.registry.register_assembly(code_id, CONST_INDEXED_ASM)
        elif archetype == 4:
            # Two-way payout routed by a toggle: value-set-exact
            # balance targets.  Symbolic payee names keep the assembler
            # from parsing them as integers.
            code_id = f"routedpay{index}"
            self.registry.register_assembly(
                code_id,
                routed_payout_asm(f"payee_{index}_a", f"payee_{index}_b"),
            )
            self.state.credit(address, FAUCET_BALANCE)
        else:
            # Two-way call routed by a toggle: value-set-exact call
            # targets, each bound to a one-write sink contract.
            sink_a = f"route_{index}_a"
            sink_b = f"route_{index}_b"
            self.registry.register_assembly(f"routesink_{index}", ROUTE_SINK_ASM)
            self.state.account(sink_a).code_id = f"routesink_{index}"
            self.state.account(sink_b).code_id = f"routesink_{index}"
            code_id = f"routedcall{index}"
            self.registry.register_assembly(
                code_id, routed_call_asm(sink_a, sink_b)
            )
        return code_id

    # -- sampling helpers -----------------------------------------------------

    def _active_users(self, era) -> int:
        return max(1, min(era.num_users, len(self.population.users)))

    def _zipf_user(self, era) -> str:
        """A busy-head-biased user, restricted to the era's active base."""
        sampler = self.population.user_sampler
        rank = sampler.sample(self.rng) % self._active_users(era)
        return self.population.users[rank].address

    def _uniform_user(self, era) -> str:
        rank = self.rng.randrange(self._active_users(era))
        return self.population.users[rank].address

    def _exchange(self) -> str:
        rank = self._exchange_sampler.sample(self.rng)
        return self.population.exchanges[rank].address

    def _ensure_funded(self, address: str) -> None:
        if self.state.balance_of(address) < FUNDING_THRESHOLD:
            self.state.credit(address, FAUCET_BALANCE)

    # -- intent generation -------------------------------------------------------

    def _plan_block(self, era) -> list[TxIntent]:
        """Draw this block's transaction intents from the era's mix."""
        mean = era.mean_txs_per_block * self.scale
        if mean <= 0:
            return []
        count = max(0, int(round(mean * self.rng.lognormvariate(0.0, 0.3))))
        intents: list[TxIntent] = []
        creation_data = "c" * 2_200  # heavy init code => ~0.2M gas
        for _ in range(count):
            roll = self.rng.random()
            deposit_cut = era.exchange_deposit_share
            withdrawal_cut = deposit_cut + era.exchange_withdrawal_share
            call_cut = withdrawal_cut + era.contract_call_share
            creation_cut = call_cut + era.contract_creation_share
            if roll < deposit_cut and self.population.exchanges:
                intents.append(
                    TxIntent(
                        kind=IntentKind.DEPOSIT,
                        sender=self._uniform_user(era),
                        receiver=self._exchange(),
                        value=self.rng.randint(1, 50) * ETHER // 10,
                        gas_limit=21_000,
                    )
                )
            elif roll < withdrawal_cut and self.population.exchanges:
                intents.append(
                    TxIntent(
                        kind=IntentKind.WITHDRAWAL,
                        sender=self._exchange(),
                        receiver=self._uniform_user(era),
                        value=self.rng.randint(1, 50) * ETHER // 10,
                        gas_limit=21_000,
                    )
                )
            elif roll < call_cut and self.population.contracts:
                contract = self.population.sample_contract(self.rng)
                intents.append(
                    TxIntent(
                        kind=IntentKind.CONTRACT_CALL,
                        sender=self._zipf_user(era),
                        receiver=contract.address,
                        value=0,
                        gas_limit=500_000,
                    )
                )
            elif roll < creation_cut:
                intents.append(
                    TxIntent(
                        kind=IntentKind.CONTRACT_CREATION,
                        sender=self._uniform_user(era),
                        receiver=NULL_ADDRESS,
                        value=0,
                        gas_limit=2_000_000,
                        data=creation_data,
                    )
                )
            else:
                sender = self._zipf_user(era)
                receiver = self._zipf_user(era)
                if receiver == sender:
                    receiver = self._uniform_user(era)
                intents.append(
                    TxIntent(
                        kind=IntentKind.TRANSFER,
                        sender=sender,
                        receiver=receiver,
                        value=self.rng.randint(1, 100) * ETHER // 100,
                        gas_limit=21_000,
                    )
                )
        # DoS-era bursts: a volley of calls into the burst contract.
        if era.internal_burst_prob > 0:
            if self.rng.random() < era.internal_burst_prob:
                volley = self.rng.randint(10, 30)
                attacker = self._uniform_user(era)
                intents.extend(
                    TxIntent(
                        kind=IntentKind.BURST_CALL,
                        sender=attacker,
                        receiver=self._burst_address,
                        value=0,
                        gas_limit=1_000_000,
                    )
                    for _ in range(volley)
                )
        return intents

    # -- block production ---------------------------------------------------------

    def build_chain(self, num_blocks: int) -> Ledger[AccountTransaction]:
        """Mine, plan, execute and commit *num_blocks* blocks.

        As with the UTXO builder, the PoW interval is compressed so the
        blocks sample the profile's full calendar span.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        from repro.workload.profiles import SECONDS_PER_YEAR

        effective_interval = (
            self.profile.duration_years * SECONDS_PER_YEAR / num_blocks
        )
        pow_sim = PoWSimulator(
            miners=self._make_miners(),
            target_interval=effective_interval,
            retarget_window=max(1, num_blocks // 10),
            rng=random.Random(("pow", self.profile.name, self.seed).__repr__()),
        )
        slots = pow_sim.mine_chain_timing(num_blocks)
        for slot in slots:
            self._build_block(slot.height, slot.timestamp, slot)
        return self.ledger

    def _build_block(self, height: int, timestamp: float, slot) -> None:
        year = self.profile.year_of_timestamp(timestamp)
        era = self.profile.era_at(year)
        intents = self._plan_block(era)

        if self.sharding is not None:
            intents = self._shard_order(intents)

        executed: list[ExecutedTransaction] = []
        transactions: list[AccountTransaction] = []

        coinbase = make_coinbase_transaction(
            miner=slot.miner.address, reward=2 * ETHER, height=height
        )
        executed.append(self.state.apply_transaction(coinbase))
        transactions.append(coinbase)

        for intent in intents:
            self._ensure_funded(intent.sender)
            tx = make_account_transaction(
                sender=intent.sender,
                receiver=intent.receiver,
                value=intent.value,
                nonce=self.state.nonce_of(intent.sender),
                gas_limit=intent.gas_limit,
                data=intent.data,
            )
            try:
                result = self.state.apply_transaction(
                    tx, executor=self.vm.execute_transaction
                )
            except ChainError:
                continue  # drop invalid intents, as a real mempool would
            executed.append(result)
            transactions.append(tx)

        parent = GENESIS_PARENT if height == 0 else self.ledger.tip.block_hash
        block: Block[AccountTransaction] = build_block(
            transactions,
            height=height,
            parent_hash=parent,
            timestamp=timestamp,
            difficulty=slot.difficulty,
            nonce=slot.nonce,
            miner=slot.miner.address,
            extra=f"shards={self.profile.num_shards}"
            if self.sharding
            else "",
        )
        self.ledger.append(block)
        self.executed_blocks.append((block, executed))

    def _shard_order(self, intents: list[TxIntent]) -> list[TxIntent]:
        """Route intents through the sharded chain builder.

        Cross-shard contract calls are dropped (recorded on the builder)
        and the surviving intents come back in shard-major order.
        """
        assert self.sharding is not None
        ordered: list[TxIntent] = []
        buckets: list[list[TxIntent]] = [
            [] for _ in range(self.sharding.num_shards)
        ]
        for intent in intents:
            is_contract = intent.receiver in self.sharding.contract_addresses
            sender_shard = self.sharding.shard_of(intent.sender)
            if is_contract and sender_shard != self.sharding.shard_of(
                intent.receiver
            ):
                continue  # cross-shard contract call: not supported
            buckets[sender_shard].append(intent)
        for bucket in buckets:
            ordered.extend(bucket)
        return ordered


def build_account_chain(
    profile: ChainProfile,
    *,
    num_blocks: int,
    seed: int = 0,
    scale: float = 1.0,
) -> AccountWorkloadBuilder:
    """One-call construction of a profile's synthetic account chain.

    Returns the builder, whose ``executed_blocks`` feed the analysis
    pipeline and whose ``ledger`` holds the committed chain.
    """
    builder = AccountWorkloadBuilder(profile=profile, seed=seed, scale=scale)
    builder.build_chain(num_blocks)
    return builder
