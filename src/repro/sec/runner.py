"""The security-matrix runner behind ``python -m repro.harness sec``.

Drives every attack in :data:`repro.sec.attacks.ATTACKS` across fork
strategies × CPU counts × chaos modes, classifies each cell as
``defeated`` (the defense raised one of the attack's expected fault
types), ``breached`` (silent success, an unexpected exception, or a
post-attack auditor violation), or ``n/a`` (the attack is not
expressible under that strategy — e.g. sentry-gate forgery on the
trap-entry monolithic baseline), and emits a byte-stable
``repro.sec/v1`` report.

Every cell boots a fresh machine from a seed derived deterministically
from (seed, attack, strategy, cpus, mode), so the whole matrix — and
therefore the report bytes — is a pure function of ``seed``.

This module imports the full OS stack, so it is *not* re-exported from
the :mod:`repro.sec` package root (which the conform invariant hook
keeps import-light).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.harness.matrix import (DEFAULT_CPUS, MODES, STRATEGIES, boot,
                                  check_cpus, check_names, write_sidecars)
from repro.sec.attacks import ATTACKS, Attack, AttackEnv
from repro.sec.auditor import audit_cap_flow

#: schema tag of the report / ``*.sec.json`` sidecar
SCHEMA = "repro.sec/v1"

#: chaos mix for the chaotic half of the matrix: only recovered /
#: retriable points (fork aborts roll back and retry) plus the sec.*
#: points, so injected faults perturb timing and interleaving without
#: ever changing an attack's verdict
DEFAULT_FAULT_MIX = "default=0.0,core.ufork.abort.*=0.05,sec.*=0.4"


def _cell_seed(seed: int, attack: str, strategy: str, cpus: int,
               mode: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}|{attack}|{strategy}|{cpus}|{mode}".encode(),
        digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _attempt(env: AttackEnv, body) -> Tuple[Optional[str], Optional[str]]:
    """Run one attack body; returns (defense type name, errno) or
    (None, None) when the body returned — i.e. nothing stopped it."""
    try:
        body(env)
    except Exception as exc:  # noqa: BLE001 - classification is the point
        return type(exc).__name__, getattr(exc, "errno_name", None)
    return None, None


def run_cell(attack: Attack, body, strategy: str, cpus: int, mode: str,
             seed: int, fault_mix: str) -> Dict[str, Any]:
    """One matrix cell: boot, attack, classify, audit, tear down."""
    if strategy not in attack.strategies:
        return {"verdict": "n/a", "reason": attack.na_reason}
    from repro.apps.hello import hello_world_image

    cell_seed = _cell_seed(seed, attack.name, strategy, cpus, mode)
    machine, os_, ctx = boot(
        strategy, seed=cell_seed, cpus=cpus, obs=True,
        chaos_mix=fault_mix if mode == "chaos" else None,
        image=hello_world_image(), name="sec")
    env = AttackEnv(os=os_, ctx=ctx, strategy=strategy)
    chaos = machine.chaos
    replayed = False
    try:
        if chaos.enabled and chaos.should_fire("sec.attack.bystander_fork"):
            bystander = ctx.fork()
            bystander.exit(0)
            ctx.wait(bystander.proc.pid)
        defense, errno = _attempt(env, body)
        if defense is not None and defense in attack.defeats \
                and chaos.enabled \
                and chaos.should_fire("sec.attack.replay"):
            replayed = True
            second, _ = _attempt(env, body)
            if second != defense:
                defense, errno = (
                    f"replay-divergent({defense}->{second})", None)
        violations = audit_cap_flow(os_)
    finally:
        for proc in sorted(os_.procs.alive(), key=lambda p: -p.pid):
            try:
                os_._exit_process(proc, 0)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
    defeated = defense in attack.defeats and not violations
    cell = {
        "verdict": "defeated" if defeated else "breached",
        "defense": defense,
        "errno": errno,
        "audit_violations": len(violations),
        "violations": violations[:4],
        "replayed": replayed,
    }
    fired = getattr(chaos, "fired", None)
    if fired is not None:
        cell["chaos_fired"] = {point: count
                               for point, count in sorted(fired.items())}
    return cell


def run_sec(seed: int = 7,
            strategies: Iterable[str] = STRATEGIES,
            cpus_list: Iterable[int] = DEFAULT_CPUS,
            modes: Iterable[str] = MODES,
            fault_mix: str = DEFAULT_FAULT_MIX,
            attacks: Optional[Iterable[str]] = None,
            obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run the attack × strategy × cpus × mode matrix.

    Returns the JSON-ready ``repro.sec/v1`` report.  With ``obs_dir``
    set, writes the report there as ``sec-<seed>.sec.json`` (canonical
    byte-stable form via :mod:`repro.harness.reportio`).
    """
    strategies = check_names("strategies", strategies, STRATEGIES)
    cpus_list = check_cpus(cpus_list)
    modes = check_names("modes", modes, MODES)
    selected = check_names("attacks",
                           ATTACKS if attacks is None else attacks,
                           tuple(ATTACKS))

    matrix: Dict[str, Dict[str, Any]] = {}
    totals = {"cells": 0, "defeated": 0, "breached": 0, "n/a": 0,
              "audit_violations": 0}
    for name in selected:
        attack, body = ATTACKS[name]
        for strategy in strategies:
            for cpus in cpus_list:
                for mode in modes:
                    cell = run_cell(attack, body, strategy, cpus, mode,
                                    seed, fault_mix)
                    matrix[f"{name}|{strategy}-c{cpus}-{mode}"] = cell
                    totals["cells"] += 1
                    if cell["verdict"] == "n/a":
                        totals["n/a"] += 1
                    else:
                        totals[cell["verdict"]] += 1
                        totals["audit_violations"] += \
                            cell["audit_violations"]

    report = {
        "schema": SCHEMA,
        "seed": seed,
        "strategies": list(strategies),
        "cpus": list(cpus_list),
        "modes": list(modes),
        "fault_mix": fault_mix,
        "attacks": {
            name: {
                "category": ATTACKS[name][0].category,
                "description": ATTACKS[name][0].description,
                "defeats": list(ATTACKS[name][0].defeats),
                "strategies": list(ATTACKS[name][0].strategies),
            }
            for name in selected
        },
        "matrix": matrix,
        "totals": totals,
        "verdict": "defeated" if totals["breached"] == 0 else "breached",
    }
    if obs_dir:
        write_sidecars(obs_dir, f"sec-{seed}", sec=report)
    return report


def format_summary(report: Dict[str, Any]) -> str:
    """Human-readable matrix digest for the CLI."""
    totals = report["totals"]
    lines = [
        f"repro.sec attack matrix (seed {report['seed']}): "
        f"{totals['cells']} cells over {len(report['attacks'])} attacks, "
        f"strategies {','.join(report['strategies'])}, "
        f"cpus {','.join(str(c) for c in report['cpus'])}, "
        f"modes {','.join(report['modes'])}",
        f"  defeated {totals['defeated']}  breached {totals['breached']}  "
        f"n/a {totals['n/a']}  auditor violations "
        f"{totals['audit_violations']}",
    ]
    for key, cell in report["matrix"].items():
        if cell["verdict"] == "breached":
            lines.append(f"  BREACH {key}: defense={cell['defense']} "
                         f"violations={cell['audit_violations']}")
    lines.append(f"verdict: {report['verdict'].upper()}")
    return "\n".join(lines)
