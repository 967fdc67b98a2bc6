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
  :func:`run_transaction` drives one for fork and snapshot restore.
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


def run_transaction(machine: Any, body: Callable[[Transaction], T],
                    kind: str, metric: str, failure: type, label: str,
                    **fields: Any) -> T:
    """Run ``body(tx)`` under the fork lock as one transaction (fork,
    snapshot restore).

    On any error the undos run, the rollback is counted (``<kind>_rollback``
    event, ``<kind>_rollbacks`` counter, obs ``metric``), an injected
    abort point is noted as recovered, and an injected fault re-raises
    as the retriable ``failure`` so the syscall layer's bounded retry
    can re-attempt the whole operation.
    """
    tx = Transaction()
    with machine.locks.fork.held():
        try:
            result = body(tx)
        except Exception as exc:
            tx.rollback()
            machine.emit(f"{kind}_rollback", counter=f"{kind}_rollbacks",
                         metric=metric, **fields, reason=type(exc).__name__)
            point = getattr(exc, "point", None)
            if point is not None:
                machine.chaos.note_recovery(point)
            if getattr(exc, "injected", False) and \
                    not isinstance(exc, failure):
                raise failure(
                    f"{label} aborted by injected fault ({exc})") from exc
            raise
        tx.commit()
    return result
