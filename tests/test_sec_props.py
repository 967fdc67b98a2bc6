"""Property suite: randomized capability mutations never mint authority.

Hypothesis drives the CHERI unforgeability story from the attacker's
side: arbitrary byte mutations of an encoded capability, forged
metadata ids, raw overwrites of tagged granules, and randomized
``set_bounds``/``and_perms`` requests.  Every property's failure
message leads with a ``repro: (seed=…, mutation=…)`` pair, so a
shrunk counterexample is directly replayable against the codec.

The invariants under test (docs/SECURITY.md):

* untagged bytes never decode to a *valid* capability, whatever they
  contain;
* a forged metadata id decodes powerless even if the attacker could
  conjure a tag;
* any raw byte store overlapping a tagged granule clears its tag;
* ``set_bounds`` is monotonic — the result never exceeds the source
  bounds — and sealed capabilities refuse mutation outright;
* ``and_perms`` can only remove permissions, never add them.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE, CapabilityCodec
from repro.errors import MonotonicityFault, SealFault, TagFault
from repro.machine import Machine

PAGE = 4096


def _frame():
    """A fresh page, allocated from a machine's physical memory."""
    phys = Machine().phys
    return phys.frame(phys.alloc())


def _cap_from_seed(seed: int) -> Capability:
    """A deterministic, well-formed capability derived from one seed."""
    base = 0x4000 + (seed % 1024) * CAP_SIZE
    length = CAP_SIZE * (1 + seed % 64)
    return Capability(base=base, length=length,
                      cursor=base + (seed % length),
                      perms=Perm.data_rw(), valid=True)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       mutation=st.binary(min_size=CAP_SIZE, max_size=CAP_SIZE))
def test_mutated_encodings_never_decode_to_valid_authority(seed, mutation):
    """XOR any mask into an encoded capability and store it raw: the
    store clears the tag, so the decode is invalid and powerless —
    there is no mutation that widens authority."""
    codec = CapabilityCodec()
    cap = _cap_from_seed(seed)
    raw = codec.encode(cap)
    mutated = bytes(a ^ b for a, b in zip(raw, mutation))
    frame = _frame()
    frame.store_cap(0, cap, codec)          # a legitimately tagged granule
    frame.write(0, mutated)                 # the attacker's raw overwrite
    got = frame.load_cap(0, codec)
    repro = f"repro: (seed={seed}, mutation={mutation.hex()})"
    assert not got.valid, repro
    with pytest.raises(TagFault):
        got.check_access(Perm.LOAD, 1, got.base)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       cursor=st.integers(0, 2**64 - 1),
       meta_id=st.integers(2, 2**64 - 1))
def test_forged_meta_ids_decode_powerless_even_if_tagged(seed, cursor,
                                                         meta_id):
    """Guessing a metadata id that was never interned yields a null
    capability even when the attacker is granted the tag bit for free —
    authority lives in the interning table, not in the 16 bytes."""
    codec = CapabilityCodec()
    codec.encode(_cap_from_seed(seed))      # id 1: the only real entry
    raw = struct.pack("<QQ", cursor, meta_id)
    got = codec.decode(raw, True)
    repro = f"repro: (seed={seed}, mutation={raw.hex()})"
    assert not got.valid, repro
    assert got.perms == Perm.NONE, repro
    assert got.length == 0, repro


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       offset=st.integers(0, PAGE - CAP_SIZE),
       data=st.binary(min_size=1, max_size=64))
def test_raw_stores_clear_every_overlapped_tag(seed, offset, data):
    """Whatever byte range a raw write covers, every granule it touches
    loses its tag — byte-level smuggling can move a capability's bytes
    but never its validity."""
    codec = CapabilityCodec()
    cap = _cap_from_seed(seed)
    frame = _frame()
    granule = (offset // CAP_SIZE) * CAP_SIZE
    frame.store_cap(granule, cap, codec)
    data = data[:PAGE - offset]
    frame.write(offset, data)
    got = frame.load_cap(granule, codec)
    repro = f"repro: (seed={seed}, mutation={offset:#x}+{data.hex()})"
    assert not got.valid, repro


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       req_base=st.integers(0, 2**20),
       req_length=st.integers(0, 2**20))
def test_set_bounds_is_monotonic(seed, req_base, req_length):
    """Any set_bounds request either faults or yields bounds contained
    in the source capability — never wider on either end."""
    cap = _cap_from_seed(seed)
    repro = (f"repro: (seed={seed}, "
             f"mutation=set_bounds({req_base:#x},{req_length:#x}))")
    try:
        narrowed = cap.set_bounds(req_base, req_length)
    except MonotonicityFault:
        return
    assert narrowed.base >= cap.base, repro
    assert narrowed.top <= cap.top, repro


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       mask=st.integers(0, int(Perm.all_perms())))
def test_and_perms_only_removes(seed, mask):
    cap = _cap_from_seed(seed)
    derived = cap.and_perms(Perm(mask))
    repro = f"repro: (seed={seed}, mutation=and_perms({mask:#x}))"
    assert not (derived.perms & ~cap.perms), repro


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), otype=st.integers(0, 2**10))
def test_sealed_capabilities_refuse_every_mutation(seed, otype):
    sealed = _cap_from_seed(seed).sealed(otype)
    repro = f"repro: (seed={seed}, mutation=seal({otype}))"
    for mutate in (lambda c: c.set_bounds(c.base, c.length),
                   lambda c: c.with_cursor(c.base),
                   lambda c: c.and_perms(Perm.LOAD)):
        with pytest.raises(SealFault):
            mutate(sealed)
        assert sealed.is_sealed, repro
