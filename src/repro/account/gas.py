"""Gas accounting for the account data model.

"Each operation in the EVM incurs a cost called gas that is proportional
to its computational cost" (§II-B).  Gas matters to this reproduction in
two places: the paper weights Ethereum's conflict-rate series by gas
(Fig. 4), and the gas model is what makes contract-creation transactions
expensive — the paper's explanation for why the gas-weighted conflict
rate sits *below* the tx-weighted one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas prices, loosely modelled on Ethereum's.

    The absolute values are Ethereum mainnet's where a direct analogue
    exists; what the experiments rely on is only their relative ordering
    (create >> call >> transfer >> arithmetic).
    """

    tx_base: int = 21_000
    tx_create: int = 53_000
    tx_data_byte: int = 68
    contract_creation: int = 32_000
    call: int = 700
    call_value_transfer: int = 9_000
    sload: int = 200
    sstore_set: int = 20_000
    sstore_update: int = 5_000
    arithmetic: int = 3
    memory_word: int = 3
    log: int = 375
    balance: int = 400

    def intrinsic_gas(self, *, is_create: bool, data_length: int) -> int:
        """Gas charged before a single VM step runs."""
        base = self.tx_create if is_create else self.tx_base
        return base + self.tx_data_byte * data_length


DEFAULT_GAS_SCHEDULE = GasSchedule()
