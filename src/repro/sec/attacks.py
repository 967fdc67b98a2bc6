"""The adversarial attack corpus.

Each attack models a *compromised* μprocess: guest code that holds only
the authority the kernel legitimately handed it (its registers, its
heap, the syscall surface) and tries to forge, widen, replay, or leak
capabilities across a μprocess boundary.  Attack bodies use the same
:class:`~repro.apps.guest.GuestContext` API real guest programs use —
the one thing they may fabricate is *integers* (addresses, raw bytes),
never tagged capabilities, which is exactly the CHERI attacker model.

The contract: a body either raises (the defense fired — the harness
checks the exception type against :attr:`Attack.defeats`) or returns,
which the harness records as a **breach**.  Defenses that are
behavioral rather than faulting (e.g. CoW write isolation under the
monolithic baseline) raise :class:`AttackDefeated` explicitly after
verifying the breach did not happen.

The corpus is data: :data:`ATTACKS` maps name → (:class:`Attack`,
body), and the runner (:mod:`repro.sec.runner`) drives it across every
strategy × CPU count × chaos mode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.cheri.capability import OTYPE_SENTRY, Perm
from repro.harness.matrix import SASOS_STRATEGIES, STRATEGIES

__all__ = ["ATTACKS", "Attack", "AttackDefeated", "AttackEnv"]

_SECRET = b"parent-secret-0x"
_OVERWRITE = b"child-overwrite!"


class AttackDefeated(Exception):
    """The defense is behavioral: no fault fires, but the body verified
    the attempted breach did not happen (e.g. a CoW write stayed
    private).  Counted as a defeat, like a capability fault."""


@dataclass(frozen=True)
class Attack:
    """One adversarial guest program."""

    name: str
    category: str          # widen | forge | replay | leak | escalate | tamper
    description: str
    #: exception type names that count as the defense firing
    defeats: Tuple[str, ...]
    #: strategies the attack is expressible under (gate attacks have no
    #: monolithic analogue: kernel entry there is a trap, not a sentry)
    strategies: Tuple[str, ...] = STRATEGIES
    #: reason recorded for strategies where the attack is inexpressible
    na_reason: str = ""


@dataclass
class AttackEnv:
    """What the harness hands an attack body."""

    os: Any
    ctx: Any               # GuestContext of the adversarial root μprocess
    strategy: str

    @property
    def machine(self) -> Any:
        return self.os.machine

    def confined(self, cap: Any, proc: Any) -> bool:
        return (proc.region_base <= cap.base
                and cap.top <= proc.region_top)


_REGISTRY: Dict[str, Tuple[Attack, Callable[[AttackEnv], None]]] = {}


def _attack(category: str, description: str, defeats: Tuple[str, ...],
            strategies: Tuple[str, ...] = STRATEGIES, na_reason: str = ""):
    def register(body: Callable[[AttackEnv], None]):
        name = body.__name__.removeprefix("_atk_")
        _REGISTRY[name] = (
            Attack(name, category, description, defeats, strategies,
                   na_reason),
            body,
        )
        return body
    return register


# ---------------------------------------------------------------------------
# Widening: out-of-bounds capability arithmetic
# ---------------------------------------------------------------------------

@_attack("widen",
         "grow a heap capability's bounds past its allocation",
         ("MonotonicityFault",))
def _atk_bounds_widen(env: AttackEnv) -> None:
    cap = env.ctx.malloc(64)
    cap.set_bounds(cap.base, cap.length + 4096)


@_attack("widen",
         "shrink a capability, then regrow it to the original span "
         "(monotonicity must hold against the *current* bounds)",
         ("MonotonicityFault",))
def _atk_bounds_regrow(env: AttackEnv) -> None:
    cap = env.ctx.malloc(64)
    small = cap.set_bounds(cap.base + 16, 16)
    small.set_bounds(cap.base, 64)


@_attack("widen",
         "move the cursor past the bounds and dereference",
         ("BoundsFault",))
def _atk_oob_cursor_deref(env: AttackEnv) -> None:
    cap = env.ctx.malloc(64)
    env.ctx.load(cap.add(cap.length), 8)


# ---------------------------------------------------------------------------
# Escalation: reaching for kernel authority
# ---------------------------------------------------------------------------

@_attack("escalate",
         "re-cursor the DDC to the kernel's syscall-gate address and "
         "dereference (the kernel window is outside every region cap)",
         ("BoundsFault",))
def _atk_kernel_window_probe(env: AttackEnv) -> None:
    from repro.core.ufork import GATE_ADDR
    probe = env.ctx.reg("ddc").with_cursor(GATE_ADDR)
    env.ctx.load(probe, 8)


@_attack("escalate",
         "execute a privileged (system-register) operation with the "
         "widest capability the μprocess holds",
         ("PrivilegeViolation",))
def _atk_system_perm_escalation(env: AttackEnv) -> None:
    from repro.core.isolation import check_privileged
    check_privileged(env.ctx.reg("ddc"), "set_system_register")


@_attack("escalate",
         "pass a corrupted (tag-cleared) pointer to a syscall, trying "
         "to make the kernel a confused deputy",
         ("BadAddress",))
def _atk_efault_user_pointer(env: AttackEnv) -> None:
    _rfd, wfd = env.ctx.syscall("pipe")
    bad = env.ctx.malloc(32).invalidated()
    env.ctx.syscall("write", wfd, bad, 8)


# ---------------------------------------------------------------------------
# Forgery: conjuring capabilities out of bytes
# ---------------------------------------------------------------------------

@_attack("forge",
         "byte-copy a tagged granule with data loads/stores and reload "
         "it as a capability (the store must have cleared the tag)",
         ("TagFault",))
def _atk_tag_forge_byte_copy(env: AttackEnv) -> None:
    ctx = env.ctx
    cap = ctx.malloc(64)
    ctx.store_cap(cap, cap.add(8), offset=0)
    raw = ctx.load(cap, 16, offset=0)
    ctx.store(cap, raw, offset=16)
    forged = ctx.load_cap(cap, offset=16)
    ctx.load(forged, 8)


@_attack("forge",
         "hand-craft granule bytes naming a fabricated codec meta-id "
         "and reload them as a capability",
         ("TagFault",))
def _atk_tag_forge_meta_id(env: AttackEnv) -> None:
    ctx = env.ctx
    cap = ctx.malloc(64)
    ctx.store(cap, struct.pack("<QQ", cap.cursor, 10 ** 9), offset=16)
    forged = ctx.load_cap(cap, offset=16)
    ctx.load(forged, 8)


@_attack("escalate",
         "seal a self-made capability as a sentry and present it as "
         "the syscall gate",
         ("IsolationViolation",),
         strategies=SASOS_STRATEGIES,
         na_reason="kernel entry is a trap; there is no sentry gate "
                   "to forge")
def _atk_gate_forge(env: AttackEnv) -> None:
    ddc = env.ctx.reg("ddc")
    fake = (ddc.set_bounds(ddc.base, 16).with_cursor(ddc.base)
            .sealed(OTYPE_SENTRY))
    env.os.syscall(env.ctx.proc, "getpid", gate=fake)


@_attack("tamper",
         "modify the sealed syscall-gate sentry (bounds arithmetic on "
         "a sealed capability)",
         ("SealFault",),
         strategies=SASOS_STRATEGIES,
         na_reason="kernel entry is a trap; no gate sentry exists")
def _atk_sealed_gate_tamper(env: AttackEnv) -> None:
    gate = env.ctx.proc.syscall_gate
    gate.set_bounds(gate.base, 8)


# ---------------------------------------------------------------------------
# Fork-boundary leaks and replay
# ---------------------------------------------------------------------------

@_attack("leak",
         "post-fork, reach the parent's heap through the pre-fork "
         "numeric address (SASOS: bounds fault; monolithic: the write "
         "lands in the child's CoW copy and must stay private)",
         ("BoundsFault", "AttackDefeated"))
def _atk_parent_cap_post_fork(env: AttackEnv) -> None:
    parent = env.ctx
    secret = parent.malloc(64)
    parent.store(secret, _SECRET)
    child = parent.fork()
    probe = child.reg("ddc").with_cursor(secret.cursor)
    if env.strategy == "monolithic":
        # same VAs by design: the probe is in bounds, so the defense is
        # write isolation — the parent's copy must never change
        child.store(probe, _OVERWRITE)
        if parent.load(secret, len(_SECRET)) == _OVERWRITE:
            return  # breach: the child's write reached the parent
        raise AttackDefeated("CoW kept the child's write private")
    child.load(probe, 8)


@_attack("replay",
         "after fork + CoW break, rewind a relocated capability's "
         "cursor by the region delta to replay the parent's copy",
         ("BoundsFault", "AttackDefeated"))
def _atk_stale_cap_after_cow(env: AttackEnv) -> None:
    parent = env.ctx
    cap = parent.malloc(64)
    parent.store_u64(cap, 0x5EC0FFEE, offset=32)
    parent.store_cap(cap, cap, offset=0)
    parent.set_reg("c19", cap)
    child = parent.fork()
    loaded = child.load_cap(child.reg("c19"), offset=0)  # breaks the share
    delta = child.proc.region_base - parent.proc.region_base
    if delta == 0:  # monolithic: same VAs, defense is write isolation
        child.store_u64(loaded, 0xDEAD, offset=32)
        if parent.load_u64(cap, offset=32) != 0x5EC0FFEE:
            return  # breach: the stale capability reached the parent
        raise AttackDefeated("CoW kept the replayed write private")
    if not (loaded.valid and env.confined(loaded, child.proc)):
        return  # breach: fork handed the child unrelocated authority
    stale = loaded.with_cursor(loaded.cursor - delta)
    child.load(stale, 8)


@_attack("replay",
         "exfiltrate a capability's bytes through a pipe, exit and be "
         "reaped (frames freed for reuse), then re-materialize the "
         "bytes in a peer",
         ("TagFault",))
def _atk_stale_cap_after_reap(env: AttackEnv) -> None:
    parent = env.ctx
    rfd, wfd = parent.syscall("pipe")
    a = parent.fork()
    acap = a.malloc(64)
    a.store(acap, b"A-private-secret")
    a.store_cap(acap, acap, offset=16)
    a.write_bytes(wfd, bytes(a.load(acap, 16, offset=16)))
    a.exit(0)
    parent.wait(a.proc.pid)           # A reaped; its frames are free
    b = parent.fork()                 # reuses A's frames (LIFO free list)
    smuggled = parent.read_bytes(rfd, 16)
    slot = parent.malloc(16)
    parent.store(slot, smuggled)      # raw store: the tag stays clear
    zombie = parent.load_cap(slot)
    try:
        parent.load(zombie, 8)
    finally:
        b.exit(0)
        parent.wait(b.proc.pid)


@_attack("leak",
         "smuggle a capability's bytes to a fork child through a pipe "
         "and reload them as a capability on the far side",
         ("TagFault",))
def _atk_pipe_cap_smuggle(env: AttackEnv) -> None:
    parent = env.ctx
    cap = parent.malloc(64)
    parent.store_cap(cap, cap.add(8), offset=0)
    raw = bytes(parent.load(cap, 16, offset=0))
    rfd, wfd = parent.syscall("pipe")
    child = parent.fork()
    parent.write_bytes(wfd, raw)
    data = child.read_bytes(rfd, 16)
    slot = child.malloc(16)
    child.store(slot, data)
    forged = child.load_cap(slot)
    child.load(forged, 8)


@_attack("leak",
         "store a tagged capability into a MAP_SHARED window so a peer "
         "could load live authority (the window must be a capability "
         "firewall: data perms only)",
         ("PermissionFault",))
def _atk_shm_cap_smuggle(env: AttackEnv) -> None:
    ctx = env.ctx
    shm = ctx.syscall("shm_open", "/sec-smuggle", 4096)
    window = ctx.syscall("shm_map", shm)
    ctx.store_cap(window, ctx.malloc(32), offset=0)


# ---------------------------------------------------------------------------
# Snapshot-blob tampering
# ---------------------------------------------------------------------------

def _blob(env: AttackEnv) -> bytes:
    """Checkpoint the adversary itself (with a stored capability, so
    the blob is guaranteed to carry a capability record)."""
    from repro.snapshot import checkpoint
    cap = env.ctx.malloc(64)
    env.ctx.store_cap(cap, cap, offset=0)
    return checkpoint(env.os, env.ctx.proc)


def _maybe_bitflip(env: AttackEnv, blob: bytes) -> bytes:
    """The ``sec.snapshot.bitflip`` chaos point: one extra
    deterministic payload bit-flip on top of the tampering."""
    chaos = env.machine.chaos
    if chaos.enabled and chaos.should_fire("sec.snapshot.bitflip"):
        return blob[:-1] + bytes([blob[-1] ^ 0x01])
    return blob


@_attack("tamper",
         "flip a magic byte of a snapshot blob; restore must refuse it",
         ("SnapshotFormatError",))
def _atk_snapshot_magic_tamper(env: AttackEnv) -> None:
    from repro.snapshot import restore
    blob = _blob(env)
    tampered = b"\x00" + blob[1:]
    restore(env.os, _maybe_bitflip(env, tampered), name="sec-magic")


@_attack("tamper",
         "rewrite the manifest's schema tag; restore must refuse it",
         ("SnapshotFormatError",))
def _atk_snapshot_schema_tamper(env: AttackEnv) -> None:
    from repro.snapshot import restore
    from repro.snapshot.format import decode, encode
    manifest, payload = decode(_blob(env))
    manifest["schema"] = "repro.snapshot/v999"
    tampered = encode(manifest, bytes(payload))
    restore(env.os, _maybe_bitflip(env, tampered), name="sec-schema")


@_attack("tamper",
         "edit the manifest's capability granule size; restore must "
         "refuse the geometry, not misparse the tag layout",
         ("SnapshotError",))
def _atk_snapshot_geometry_tamper(env: AttackEnv) -> None:
    from repro.snapshot import restore
    from repro.snapshot.format import decode, encode
    manifest, payload = decode(_blob(env))
    manifest["granule"] = 8
    tampered = encode(manifest, bytes(payload))
    restore(env.os, _maybe_bitflip(env, tampered), name="sec-geometry")


@_attack("tamper",
         "widen a capability record in the manifest (bounds beyond the "
         "snapshot's region, plus the SYSTEM permission); restore must "
         "fail, not mint the authority",
         ("SnapshotFormatError",))
def _atk_snapshot_cap_widen(env: AttackEnv) -> None:
    from repro.snapshot import restore
    from repro.snapshot.format import decode, encode
    manifest, payload = decode(_blob(env))
    entry = next(page for page in manifest["pages"] if page["caps"])
    record = entry["caps"][0]
    record[2] += 1 << 32              # length: far beyond the region
    record[4] |= int(Perm.SYSTEM)     # perms: privileged escalation
    tampered = encode(manifest, bytes(payload))
    restore(env.os, _maybe_bitflip(env, tampered), name="sec-widen")


#: name → (Attack, body), in registration (= report) order
ATTACKS: Dict[str, Tuple[Attack, Callable[[AttackEnv], None]]] = dict(
    _REGISTRY)
