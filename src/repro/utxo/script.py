"""A miniature output-locking script language.

Bitcoin "does not support smart contracts, but there is a simple
scripting language for transactions" (§II-B).  The paper conjectures that
higher-level protocols running over this scripting layer are one source
of the surprisingly frequent intra-block spend chains.  We model a tiny
stack language sufficient to express pay-to-pubkey-hash, multisig-style
thresholds, and anyone-can-spend outputs, so workloads can tag outputs
with protocol roles.

Grammar (whitespace-separated tokens, executed left to right):

    PUSH:<literal>    push a string literal
    DUP               duplicate top of stack
    EQUAL             pop two, push "1" if equal else "0"
    VERIFY            pop; fail script unless "1"
    CHECKSIG:<owner>  push "1" if the spender equals <owner> else "0"
    THRESHOLD:<k>:<a,b,c>  push "1" if spender is one of the listed
                      owners and k >= 1 (simplified multisig)

The empty script is anyone-can-spend.  A script *succeeds* when execution
completes without VERIFY failing and the top of stack (if any) is "1".
"""

from __future__ import annotations

from dataclasses import dataclass


class ScriptError(Exception):
    """Raised when a script is malformed or fails verification."""


@dataclass(frozen=True)
class ScriptResult:
    """Outcome of a script evaluation."""

    success: bool
    steps: int


def p2pkh_script(owner: str) -> str:
    """The standard pay-to-owner locking script."""
    return f"CHECKSIG:{owner} VERIFY PUSH:1"


def evaluate(script: str, spender: str) -> ScriptResult:
    """Execute *script* on behalf of *spender*.

    Returns a :class:`ScriptResult`; scripts never raise on mere
    verification failure, only on malformed programs.
    """
    stack: list[str] = []
    tokens = script.split()
    steps = 0
    for token in tokens:
        steps += 1
        if token.startswith("PUSH:"):
            stack.append(token[len("PUSH:"):])
        elif token == "DUP":
            if not stack:
                raise ScriptError("DUP on empty stack")
            stack.append(stack[-1])
        elif token == "EQUAL":
            if len(stack) < 2:
                raise ScriptError("EQUAL needs two operands")
            a, b = stack.pop(), stack.pop()
            stack.append("1" if a == b else "0")
        elif token == "VERIFY":
            if not stack:
                raise ScriptError("VERIFY on empty stack")
            if stack.pop() != "1":
                return ScriptResult(success=False, steps=steps)
        elif token.startswith("CHECKSIG:"):
            owner = token[len("CHECKSIG:"):]
            stack.append("1" if spender == owner else "0")
        elif token.startswith("THRESHOLD:"):
            parts = token.split(":", 2)
            if len(parts) != 3:
                raise ScriptError(f"malformed THRESHOLD token {token!r}")
            try:
                threshold = int(parts[1])
            except ValueError as exc:
                raise ScriptError("THRESHOLD k must be an integer") from exc
            owners = parts[2].split(",") if parts[2] else []
            if threshold < 1 or threshold > len(owners):
                raise ScriptError("THRESHOLD k out of range")
            stack.append("1" if spender in owners else "0")
        else:
            raise ScriptError(f"unknown token {token!r}")
    if not tokens:
        return ScriptResult(success=True, steps=0)
    success = bool(stack) and stack[-1] == "1"
    return ScriptResult(success=success, steps=steps)


def can_spend(script: str, spender: str) -> bool:
    """True when *spender* satisfies the locking *script*."""
    return evaluate(script, spender).success
