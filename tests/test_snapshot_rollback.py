"""Transactional-restore tier: kill restore at every phase boundary and
prove the target kernel is exactly as it was — no leaked frames, VA
reservations, PIDs, PTEs or half-populated fd tables — then show the
very same blob restores once the chaos clears (retriability).

The corruption matrix at the bottom is the adversarial half
(docs/SECURITY.md): every manifest field and payload byte-region is
tampered with in turn, and each tampered blob must fail restore with a
*typed* error — never restore, and never perturb the target kernel."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.chaos import ChaosEngine, FaultMix, InjectedRestoreFailure
from repro.core import CopyStrategy, UForkOS
from repro.errors import OutOfMemory
from repro.machine import Machine
from repro.params import MachineConfig
from repro.snapshot import checkpoint, restore
from repro.snapshot.engine import SnapshotError
from repro.snapshot.format import (MAGIC, SnapshotFormatError, decode,
                                   dumps_manifest)

ABORT_POINTS = [
    "core.snapshot.abort.reserve",
    "core.snapshot.abort.pages",
    "core.snapshot.abort.registers",
    "core.snapshot.abort.allocator",
]


def make_blob(seed=7):
    """A donor machine produces the blob, then is torn down."""
    machine = Machine(seed=seed)
    os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "donor"))
    cap = ctx.malloc(128)
    ctx.store(cap, b"precious snapshot state")
    ctx.store_cap(cap, cap, offset=48)
    ctx.set_reg("c19", cap)
    blob = checkpoint(os_, ctx.proc)
    ctx.exit(0)
    return blob


def boot_target(spec, seed=7):
    machine = Machine(seed=seed)
    machine.obs.enable()
    engine = ChaosEngine(seed=seed, mix=FaultMix.parse(spec))
    engine.attach(machine)
    with engine.paused():
        os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "resident"))
    return os_, ctx, engine


def kernel_snapshot(os_):
    """Everything a leaky restore could perturb."""
    machine = os_.machine
    ptes = {
        vpn: (frame, perms, machine.phys.refcount(frame))
        for vpn, frame, perms, _cow, _note
        in os_.space.mapped_items(0, 1 << 40)
    }
    return {
        "frames": machine.phys.allocated_frames,
        "ptes": ptes,
        "reserved": sorted(os_.vspace.reserved_areas()),
        "alive_pids": sorted(p.pid for p in os_.procs.alive()),
    }


@pytest.mark.parametrize("point", ABORT_POINTS,
                         ids=lambda p: p.rsplit(".", 1)[-1])
def test_abort_at_every_boundary_leaks_nothing(point):
    blob = make_blob()
    os_, ctx, engine = boot_target(spec=f"{point}=1.0")
    before = kernel_snapshot(os_)

    with pytest.raises(InjectedRestoreFailure):
        restore(os_, blob)

    assert kernel_snapshot(os_) == before
    assert os_.machine.counters.snapshot().get("restore_rollbacks") == 1
    counters = os_.machine.obs.registry.counters()
    assert counters["core.snapshot.restore_rollbacks"] == 1
    assert engine.recovered.get(point) == 1

    # with the chaos cleared, the very same blob restores and runs
    engine.disable()
    restored = GuestContext(os_, restore(os_, blob))
    cap = restored.reg("c19")
    assert restored.load(cap, 23) == b"precious snapshot state"
    assert restored.load_cap(cap, offset=48).base == cap.base
    restored.exit(0)
    ctx.exit(0)


def test_alloc_failure_mid_page_loop_rolls_back():
    """Frame exhaustion *inside* the page-materialization loop (not at a
    phase boundary) also rolls back fully, and surfaces wrapped as the
    retriable InjectedRestoreFailure."""
    blob = make_blob()
    os_, ctx, engine = boot_target(spec="default=0.0")
    before = kernel_snapshot(os_)
    engine.mix = FaultMix.parse("hw.phys.alloc_fail=0.2")

    with pytest.raises(InjectedRestoreFailure) as excinfo:
        restore(os_, blob)
    assert excinfo.value.__cause__ is not None
    assert excinfo.value.retriable

    engine.mix = FaultMix.parse("default=0.0")
    assert kernel_snapshot(os_) == before
    ctx.exit(0)


def test_disabled_chaos_restores_bit_identically():
    """With injection disabled, the instrumented restore path must be
    byte-identical to a run on a chaos-free machine."""
    blob = make_blob()

    def run(attach_engine):
        machine = Machine(seed=7)
        machine.obs.enable()
        if attach_engine:
            ChaosEngine(seed=7, mix=FaultMix.parse("default=0.5"),
                        enabled=False).attach(machine)
        os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)
        restored = GuestContext(os_, restore(os_, blob))
        cap = restored.reg("c19")
        assert restored.load(cap, 23) == b"precious snapshot state"
        restored.exit(0)
        from repro.obs import to_json
        return to_json(machine.obs.export())

    assert run(attach_engine=False) == run(attach_engine=True)


# ---------------------------------------------------------------------------
# The corruption matrix: tampered blobs fail typed, roll back fully
# ---------------------------------------------------------------------------

def _reencode(blob, mutate):
    """Decode, let ``mutate`` deface the manifest/payload, re-assemble.

    Assembles the blob by hand (not through ``encode``, which has its
    own validation) — an attacker gets to write arbitrary bytes."""
    import struct

    manifest, payload = decode(blob)
    payload = bytearray(payload)
    out = mutate(manifest, payload)
    if out is not None:
        manifest, payload = out
    body = dumps_manifest(manifest)
    return MAGIC + struct.pack("<I", len(body)) + body + bytes(payload)


def _set_schema(m, _p):
    m["schema"] = "repro.snapshot/v999"


def _drop_page_field(m, _p):
    del m["pages"][0]["vpn"]


def _widen_cap_length(m, _p):
    for entry in m["pages"]:
        if entry["caps"]:
            entry["caps"][0][2] += 1 << 32
            return
    raise AssertionError("blob has no capability records to tamper")


def _grant_cap_system(m, _p):
    from repro.cheri.capability import Perm
    for entry in m["pages"]:
        if entry["caps"]:
            entry["caps"][0][4] |= int(Perm.SYSTEM)
            return
    raise AssertionError("blob has no capability records to tamper")


def _escape_cap_region(m, _p):
    for entry in m["pages"]:
        if entry["caps"]:
            entry["caps"][0][1] = m["region_top"]
            return
    raise AssertionError("blob has no capability records to tamper")


def _forge_register_sentry(m, _p):
    from repro.cheri.capability import OTYPE_SENTRY
    for record in m["registers"]:
        if record[1] == "cap" and record[-1]:
            record[6] = OTYPE_SENTRY    # a sentry the kernel never sealed
            return
    raise AssertionError("blob has no valid capability register record")


def _vpn_escapes_region(m, _p):
    m["pages"][-1]["vpn"] = m["region_top"] // m["page_size"]


def _vpn_repeated(m, _p):
    m["pages"][1]["vpn"] = m["pages"][0]["vpn"]


def _truncate_payload(m, p):
    return m, p[:-1]


def _extend_payload(m, p):
    return m, p + b"\x00"


CORRUPTIONS = [
    ("magic", SnapshotFormatError,
     lambda blob: b"\x00" + blob[1:]),
    ("manifest-length", SnapshotFormatError,
     lambda blob: blob[:8] + b"\xff\xff\xff\x0f" + blob[12:]),
    ("manifest-json", SnapshotFormatError,
     lambda blob: blob[:12] + b"\xff" + blob[13:]),
    ("schema", SnapshotFormatError,
     lambda blob: _reencode(blob, _set_schema)),
    ("page-record-field", SnapshotFormatError,
     lambda blob: _reencode(blob, _drop_page_field)),
    ("cap-length-widened", SnapshotFormatError,
     lambda blob: _reencode(blob, _widen_cap_length)),
    ("cap-system-perm", SnapshotFormatError,
     lambda blob: _reencode(blob, _grant_cap_system)),
    ("cap-escapes-region", SnapshotFormatError,
     lambda blob: _reencode(blob, _escape_cap_region)),
    ("register-sentry-forged", SnapshotFormatError,
     lambda blob: _reencode(blob, _forge_register_sentry)),
    ("page-vpn-escapes-region", SnapshotFormatError,
     lambda blob: _reencode(blob, _vpn_escapes_region)),
    ("page-vpn-repeated", SnapshotFormatError,
     lambda blob: _reencode(blob, _vpn_repeated)),
    ("payload-truncated", SnapshotFormatError,
     lambda blob: _reencode(blob, _truncate_payload)),
    ("payload-extended", SnapshotFormatError,
     lambda blob: _reencode(blob, _extend_payload)),
    ("geometry-granule", SnapshotError,
     lambda blob: _reencode(
         blob, lambda m, _p: m.__setitem__("granule", 8))),
    # a lying page_size is caught even earlier: the payload no longer
    # matches what the manifest promises, so decode refuses the blob
    ("geometry-page-size", SnapshotFormatError,
     lambda blob: _reencode(
         blob, lambda m, _p: m.__setitem__("page_size", 1024))),
]


@pytest.mark.parametrize("label,error,corrupt",
                         CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_tampered_blob_fails_typed_and_rolls_back(label, error, corrupt):
    """Each corruption must surface as its declared error type, mint no
    authority, and leave the target kernel bit-exactly untouched."""
    blob = make_blob()
    tampered = corrupt(blob)
    assert tampered != blob
    os_, ctx, _engine = boot_target(spec="default=0.0")
    before = kernel_snapshot(os_)

    with pytest.raises(error):
        restore(os_, tampered)

    assert kernel_snapshot(os_) == before
    # the pristine blob still restores on the very same target
    restored = GuestContext(os_, restore(os_, blob))
    cap = restored.reg("c19")
    assert restored.load(cap, 23) == b"precious snapshot state"
    restored.exit(0)
    ctx.exit(0)


def test_incremental_apply_rejects_tampered_caps_too():
    """``restore_into`` (the cluster-migration path) runs the same
    upfront manifest validation as a full restore: a capability record
    granting SYSTEM never reaches the target μprocess."""
    from repro.snapshot import checkpoint
    from repro.snapshot.engine import restore_into

    machine = Machine(seed=7)
    os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "zygote"))
    donor = ctx.fork()
    buf = donor.malloc(64)
    donor.store(buf, b"divergent")
    blob = checkpoint(os_, donor.proc, incremental=True)
    target = ctx.fork()
    before = kernel_snapshot(os_)

    with pytest.raises(SnapshotFormatError):
        restore_into(os_, target.proc,
                     _reencode(blob, _grant_cap_system))

    assert kernel_snapshot(os_) == before
    assert restore_into(os_, target.proc, blob) >= 1
    donor.exit(0)
    target.exit(0)


def test_geometry_error_carries_einval():
    blob = _reencode(make_blob(),
                     lambda m, _p: m.__setitem__("granule", 8))
    os_, ctx, _engine = boot_target(spec="default=0.0")
    with pytest.raises(SnapshotError) as excinfo:
        restore(os_, blob)
    assert excinfo.value.errno_name == "EINVAL"
    ctx.exit(0)


def _zygote(dram_frames=None):
    """A CoPA machine at seed 3 (``dram_frames`` of DRAM, when given)
    with a zygote μprocess."""
    kwargs = {} if dram_frames is None else {
        "config": MachineConfig(dram_bytes=dram_frames * 4096)}
    os_ = UForkOS(machine=Machine(seed=3, **kwargs),
                  copy_strategy=CopyStrategy.COPA)
    return os_, GuestContext(os_, os_.spawn(hello_world_image(), "zygote"))


def _twin_state(os_, twin):
    machine = os_.machine
    page = machine.config.page_size
    pages = []
    for vpn, frame, perms, cow, _note in os_.space.mapped_items(
            twin.proc.region_base // page, twin.proc.region_top // page):
        data, tags = machine.phys.frame(frame).snapshot_content()
        pages.append((vpn, frame, perms, cow, data, tags))
    return {
        "pages": pages,
        "frames": machine.phys.allocated_frames,
        "registers": dict(twin.proc.main_task().registers.items()),
    }


@pytest.mark.parametrize("spare", range(6))
def test_restore_into_out_of_frames_leaves_the_target_as_it_was(spare):
    """A worker's 10 divergent pages do not fit on the target: the apply
    fails typed, with the twin's mappings, page contents, registers and
    the allocated frame count as they were, and the twin still runs."""
    from repro.snapshot.engine import restore_into

    os_, zygote = _zygote()
    worker = zygote.fork()
    buf = worker.malloc(6 * 4096)
    for index in range(6):
        worker.store(buf, b"divergent %d" % index, offset=index * 4096)
    blob = checkpoint(os_, worker.proc, incremental=True)
    assert len(decode(blob)[0]["pages"]) == 10

    os_, zygote = _zygote()
    zygote.fork()
    frames = os_.machine.phys.allocated_frames
    os_, zygote = _zygote(frames + spare)
    zygote_frames = os_.machine.phys.allocated_frames
    twin = zygote.fork()
    before = _twin_state(os_, twin)

    with pytest.raises(OutOfMemory):
        restore_into(os_, twin.proc, blob)

    assert _twin_state(os_, twin) == before
    # the twin still runs, and exits leaving nothing behind
    assert twin.syscall("getpid") == twin.pid
    twin.exit(0)
    zygote.wait(twin.pid)
    assert os_.machine.phys.allocated_frames == zygote_frames


def test_vmclone_checkpoint_is_refused_up_front():
    """A VM clone's DDC keeps SYSTEM for its guest kernel, which no
    restore accepts: ``checkpoint`` itself refuses with EINVAL before
    charging anything, instead of handing out a blob every restore
    rejects as tampered."""
    from repro.baselines.vmclone import VMCloneOS

    os_ = VMCloneOS(machine=Machine(seed=7))
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "guest"))
    now = os_.machine.clock.now_ns
    with pytest.raises(SnapshotError) as excinfo:
        checkpoint(os_, ctx.proc)
    assert excinfo.value.errno_name == "EINVAL"
    assert "SYSTEM" in str(excinfo.value)
    assert os_.machine.clock.now_ns == now
