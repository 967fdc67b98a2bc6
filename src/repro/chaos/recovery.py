"""Survival machinery: bounded retry-with-backoff and undo transactions.

The fault half of ``repro.chaos`` (engine.py) provokes; this module is
the half that survives.  Two primitives:

* :func:`retry_syscall` — the syscall layer's bounded
  retry-with-exponential-backoff loop.  It retries **only** faults that
  are both injected and flagged retriable (raised before any handler
  side effect, or after a transaction rolled the side effects back), so
  genuine kernel errors and partial-state failures always propagate.
* :class:`Transaction` — a LIFO undo stack for multi-step kernel
  operations.  μFork's fork registers an undo per mutation (VA
  reservation, child mappings, parent PTE write-protection, fd-table
  duplication, parent/child linkage); if any step dies the rollback
  leaves no orphaned frames, PIDs, or fd-table entries
  (tests/test_fork_rollback.py is the contract).
"""

from __future__ import annotations

from typing import Any, Callable, List, TypeVar

#: how many times a retriable injected fault is retried before it
#: escapes to the caller
RETRY_MAX_ATTEMPTS = 4
#: simulated backoff before attempt n+1: BASE * 2**(n-1) ns
RETRY_BACKOFF_BASE_NS = 2_000.0

T = TypeVar("T")


def is_retriable_injection(exc: BaseException) -> bool:
    """True for chaos-injected faults that are safe to retry."""
    return bool(getattr(exc, "injected", False)
                and getattr(exc, "retriable", False))


def retry_syscall(machine: Any, fn: Callable[[], T],
                  max_attempts: int = RETRY_MAX_ATTEMPTS) -> T:
    """Run a syscall handler, absorbing retriable injected faults.

    Charges exponential backoff (``chaos_backoff`` clock bucket) between
    attempts and counts ``chaos.retry.{attempts,successes,exhausted}``.
    The last attempt's fault propagates unchanged.
    """
    attempt = 1
    while True:
        try:
            result = fn()
        except Exception as exc:
            if not is_retriable_injection(exc) or attempt >= max_attempts:
                if is_retriable_injection(exc):
                    machine.emit(metric="chaos.retry.exhausted")
                raise
            machine.charge(RETRY_BACKOFF_BASE_NS * 2 ** (attempt - 1),
                           "chaos_backoff")
            machine.emit(metric="chaos.retry.attempts")
            attempt += 1
        else:
            if attempt > 1:
                machine.emit(metric="chaos.retry.successes")
            return result


class Transaction:
    """A LIFO undo stack: register an undo per mutation, ``commit`` on
    success, ``rollback`` runs the undos newest-first on failure."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def on_abort(self, undo: Callable[[], None]) -> None:
        self._undo.append(undo)

    def commit(self) -> None:
        self._undo.clear()

    def rollback(self) -> None:
        while self._undo:
            self._undo.pop()()
