"""In-memory encoding of capabilities.

Real CHERI compresses a capability's bounds and permissions into 128
bits next to the 64-bit address.  The simulation keeps memory honest —
a capability stored to memory occupies exactly one 16-byte granule whose
first 8 bytes are the little-endian cursor (so integer loads of a
pointer's bytes observe its address, as on hardware) — and interns the
metadata half (bounds, permissions, otype) in a table indexed by the
second 8 bytes.  A stored capability is therefore a packed
``(cursor, meta id)`` pair (:data:`GRANULE`), the same split hardware
CHERI makes between the address and the compressed bounds: code that
only rebases or checks bounds (the relocation scan, the GOT builder,
the capability-flow auditor) works on that pair through
:meth:`CapabilityCodec.intern` and :meth:`CapabilityCodec.meta` and
builds no :class:`Capability`.

The *authority* to dereference never comes from these bytes alone: the
granule's validity tag (held in :mod:`repro.hw.phys`) is authoritative,
so overwriting a capability's bytes or forging a metadata index yields
an untagged, powerless value — the CHERI unforgeability property.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cheri.capability import Capability, Perm, _fast_cap

#: a capability occupies one granule
CAP_SIZE = 16

#: one stored capability: little-endian ``(cursor, meta id)``
GRANULE = struct.Struct("<QQ")

#: a stored cursor is its low 64 bits
CURSOR_MASK = 2**64 - 1

#: interned metadata: ``(base, length, perms, otype)``, perms an int
Meta = Tuple[int, int, int, int]


#: memo tables are dropped wholesale once they reach this many entries
#: (they are per-machine; real workloads stay far below the cap)
_MEMO_CAP = 65536


class CapabilityCodec:
    """Interns capability metadata and packs/unpacks 16-byte granules.

    Meta ids are append-only: :meth:`intern` hands out the next id for
    a metadata tuple it has not seen and the same id forever after, and
    :meth:`meta` of an id never changes once it is not ``None``.  Every
    memo over ``(cursor, meta id)`` pairs rests on that.

    Encode and decode are memoised.  Both memos are sound by
    construction: a metadata tuple, once interned, never changes, so a
    ``(cursor, meta_id, valid)`` triple always decodes to an equal
    :class:`Capability`.  The one case that
    is *not* cacheable — raw bytes naming a meta id that does not exist
    yet (a forged capability) — is deliberately left uncached, because
    interning could later create that id and change the decode result.
    """

    def __init__(self) -> None:
        self._meta_to_id: Dict[Meta, int] = {}
        self._id_to_meta: Dict[int, Meta] = {}
        self._encode_memo: Dict[Tuple[int, int, int, int, int], bytes] = {}
        self._decode_memo: Dict[Tuple[bytes, bool], Capability] = {}

    def intern(self, meta: Meta) -> int:
        """The id of ``(base, length, perms, otype)``, assigning the
        next one (ids start at 1) the first time the tuple is seen."""
        meta_id = self._meta_to_id.get(meta)
        if meta_id is None:
            meta_id = len(self._meta_to_id) + 1
            self._meta_to_id[meta] = meta_id
            self._id_to_meta[meta_id] = meta
        return meta_id

    def meta(self, meta_id: int) -> Optional[Meta]:
        """The metadata tuple interned under ``meta_id``, or ``None``
        for an id not handed out yet (a forged granule)."""
        return self._id_to_meta.get(meta_id)

    def metas(self, meta_ids: Iterable[int]) -> List[Optional[Meta]]:
        """:meth:`meta` of each of ``meta_ids``, in one C-level pass."""
        return list(map(self._id_to_meta.get, meta_ids))

    def encode(self, cap: Capability) -> bytes:
        """Pack a capability into its 16-byte memory representation."""
        key = (cap.cursor, cap.base, cap.length, int(cap.perms), cap.otype)
        raw = self._encode_memo.get(key)
        if raw is not None:
            return raw
        raw = GRANULE.pack(cap.cursor & CURSOR_MASK, self.intern(
            (cap.base, cap.length, int(cap.perms), cap.otype)))
        if len(self._encode_memo) >= _MEMO_CAP:
            self._encode_memo.clear()
        self._encode_memo[key] = raw
        return raw

    def decode(self, raw: bytes, valid: bool) -> Capability:
        """Unpack a 16-byte granule.

        ``valid`` is the granule's tag bit: an untagged granule decodes
        to an *invalid* capability (unusable), mirroring hardware where
        loading untagged bytes into a capability register yields a value
        that faults on use.
        """
        memo_key = (raw, valid)
        cached = self._decode_memo.get(memo_key)
        if cached is not None:
            return cached
        if len(raw) != CAP_SIZE:
            raise ValueError(f"capability granule must be {CAP_SIZE} bytes")
        cursor, meta_id = GRANULE.unpack(raw)
        meta = self._id_to_meta.get(meta_id)
        if meta is None:
            # Forged / garbage metadata: an invalid null-ish capability.
            # NOT memoised — interning could later claim this meta id.
            return Capability(
                base=0, length=0, cursor=cursor, perms=Perm.NONE, valid=False
            )
        base, length, perms, otype = meta
        cap = _fast_cap(base, length, cursor, Perm(perms), otype, valid)
        if len(self._decode_memo) >= _MEMO_CAP:
            self._decode_memo.clear()
        self._decode_memo[memo_key] = cap
        return cap
