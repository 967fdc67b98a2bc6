"""``repro.sec``: the adversarial capability-security suite.

Three pieces (docs/SECURITY.md):

* :mod:`repro.sec.attacks` — the attack corpus: adversarial guest
  programs that try to forge, widen, replay, or leak capabilities
  across μprocess boundaries;
* :mod:`repro.sec.auditor` — the capability-flow auditor: at any trap
  or preemption point, no live register or tagged granule may hold a
  capability whose provenance crosses a μprocess boundary (wired into
  the conform explorer/farm via ``check_invariants``);
* :mod:`repro.sec.runner` — the matrix runner behind
  ``python -m repro.harness sec``, emitting the byte-stable
  ``repro.sec/v1`` report.

The package root stays import-light (no OS stack): the conform
invariant hook imports :mod:`repro.sec.auditor` on its hot path.
"""

from repro.sec.attacks import ATTACKS, Attack, AttackDefeated, AttackEnv
from repro.sec.auditor import audit_cap_flow, provenance_of

__all__ = [
    "ATTACKS",
    "Attack",
    "AttackDefeated",
    "AttackEnv",
    "audit_cap_flow",
    "provenance_of",
]
