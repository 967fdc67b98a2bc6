"""The GOT and pointer-global builder against per-entry derivation.

:func:`repro.core.got.store_pointers` mints a table of capabilities as
packed ``(cursor, meta id)`` granules, with one monotonicity check per
permission class.  The reference here derives every entry as a
:class:`Capability` — ``root.set_bounds(target, length)
.with_cursor(target)`` — encodes them one by one and stores the table
with the same ``store_granules``.  Both must leave the same bytes, tags
and page versions, intern the same metadata in the same order, and
raise the same fault (class and message) with nothing interned or
stored when a target lies outside its root.
"""

import itertools

import pytest

from repro.cheri.capability import OTYPE_SENTRY, Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.core import uprocess
from repro.core.got import init_got, store_pointers
from repro.errors import CapabilityFault
from repro.hw.paging import AddressSpace, PagePerm
from repro.machine import Machine

PAGE = 4096
BASE_VPN = 64
PAGES = 24
BASE = BASE_VPN * PAGE
GOT = BASE + PAGE // 2
DATA = BASE + 10 * PAGE
RODATA = BASE + 16 * PAGE
TOP = BASE + PAGES * PAGE


def ref_store_pointers(space, base, roots, targets, length):
    caps = [root.set_bounds(target, length).with_cursor(target)
            for root, target in zip(roots, targets)]
    encode = space.machine.codec.encode
    space.store_granules(base, b"".join(map(encode, caps)),
                         bytes(1 if cap.valid else 0 for cap in caps))


def ref_init_got(space, got_base, entries, region_cap, data_base,
                 data_size, rodata_base, rodata_size):
    data_rw = region_cap.and_perms(Perm.data_rw())
    data_ro = region_cap.and_perms(Perm.data_ro())
    roots, targets = [], []
    for index in range(entries):
        if index % 2 == 0 and data_size >= 32:
            targets.append(data_base + (index * 32) % max(32, data_size - 32))
            roots.append(data_rw)
        else:
            targets.append(rodata_base
                           + (index * 32) % max(32, rodata_size - 32))
            roots.append(data_ro)
    ref_store_pointers(space, got_base, roots, targets, 32)


def _intern_table(machine):
    meta = machine.codec.meta
    return list(itertools.takewhile(
        lambda item: item is not None, map(meta, itertools.count(1))))


def _space():
    """Mapped pages holding bytes and a few capabilities already (so
    the table meets interned metadata and non-empty pages)."""
    machine = Machine()
    space = AddressSpace(machine, "got")
    for index in range(PAGES):
        space.map_page(BASE_VPN + index, machine.phys.alloc(),
                       PagePerm.rwc())
    root = Capability(base=BASE, length=TOP - BASE, cursor=BASE,
                      perms=Perm.all_perms())
    for index in range(PAGES):
        page = BASE + index * PAGE
        space.write(page, bytes(range(256)) * 16, privileged=True)
        space.store_cap(page + PAGE - CAP_SIZE,
                        root.set_bounds(RODATA, 32).with_cursor(RODATA),
                        privileged=True)
    return machine, space


def _run(build):
    """Run ``build(space)`` on a fresh space; the fault it raised (class
    and message) and every observable."""
    machine, space = _space()
    numbers = [space.frame_of(BASE_VPN + index) for index in range(PAGES)]
    before = machine.phys.versions(numbers)
    fault = None
    try:
        build(space)
    except CapabilityFault as exc:
        fault = (type(exc), str(exc))
    return {
        "fault": fault,
        "content": [machine.phys.frame(n).snapshot_content()
                    for n in numbers],
        "version_deltas": [after - old for after, old in
                           zip(machine.phys.versions(numbers), before)],
        "meta": _intern_table(machine),
        "now_ns": machine.clock.now_ns,
    }


def _both(init, **kwargs):
    def ours(space):
        init(init_got, space, **kwargs)

    def ref(space):
        init(ref_init_got, space, **kwargs)
    return _run(ours), _run(ref)


def _got(builder, space, entries, region=None, data_size=4 * PAGE,
         rodata_size=4 * PAGE, rodata_base=RODATA):
    if region is None:
        region = Capability(base=BASE, length=TOP - BASE, cursor=BASE,
                            perms=Perm.all_perms())
    builder(space, GOT, entries, region, data_base=DATA,
            data_size=data_size, rodata_base=rodata_base,
            rodata_size=rodata_size)


@pytest.mark.parametrize("entries", [64, 1024, 2048])
@pytest.mark.parametrize("data_size", [4 * PAGE, 16, 0])
def test_got_matches_per_entry_derivation(entries, data_size):
    ours, ref = _both(_got, entries=entries, data_size=data_size)
    assert ref["fault"] is None
    assert ours == ref


@pytest.mark.parametrize("region", [
    # a root without its tag mints untagged (powerless) entries
    Capability(base=BASE, length=TOP - BASE, cursor=BASE,
               perms=Perm.all_perms(), valid=False),
    # a narrower permission set
    Capability(base=BASE, length=TOP - BASE, cursor=BASE,
               perms=Perm.data_ro()),
])
def test_got_root_variants_match(region):
    ours, ref = _both(_got, entries=300, region=region)
    assert ours == ref


def _root(base, top):
    return Capability(base=base, length=top - base, cursor=base,
                      perms=Perm.all_perms())


@pytest.mark.parametrize("region,rodata_base", [
    # rodata targets run past the root's top from a later entry on
    (_root(BASE, RODATA + PAGE // 4), RODATA),
    # the data class fails from its first entry, rodata is fine
    (_root(DATA + PAGE, TOP), RODATA),
    # both classes fail; the first offending entry is a data one
    (_root(DATA + PAGE, RODATA + PAGE // 4), RODATA),
    # rodata fails from entry 1, data (with 2048 entries) only later
    (_root(DATA, DATA + 2 * PAGE), DATA - PAGE),
])
@pytest.mark.parametrize("entries", [64, 2048])
def test_out_of_bounds_target_raises_the_per_entry_fault(region,
                                                         rodata_base,
                                                         entries):
    ours, ref = _both(_got, entries=entries, region=region,
                      rodata_base=rodata_base)
    assert ref["fault"] is not None
    assert ours == ref


def test_sealed_root_raises_the_per_entry_fault():
    sealed = Capability(base=BASE, length=TOP - BASE, cursor=BASE,
                        perms=Perm.all_perms(), otype=OTYPE_SENTRY)
    ours = _run(lambda space: store_pointers(space, GOT, [sealed] * 4,
                                             [RODATA] * 4, 32))
    ref = _run(lambda space: ref_store_pointers(space, GOT, [sealed] * 4,
                                                [RODATA] * 4, 32))
    assert ref["fault"] is not None
    assert ours == ref


def test_data_globals_match_per_entry_derivation():
    root = Capability(base=BASE, length=TOP - BASE, cursor=BASE,
                      perms=Perm.all_perms()).and_perms(Perm.data_ro())
    targets = [RODATA + index * 64
               for index in range(uprocess.DATA_POINTER_GLOBALS)]
    ours = _run(lambda space: store_pointers(
        space, DATA, [root] * len(targets), targets, 64))
    ref = _run(lambda space: ref_store_pointers(
        space, DATA, [root] * len(targets), targets, 64))
    assert ours == ref
