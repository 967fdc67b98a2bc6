"""The memory API boundary is enforced, not aspirational.

The vectorized engine (docs/ARCHITECTURE.md "Vectorized engine") keeps
its storage representation behind one narrow surface on
:class:`~repro.hw.paging.AddressSpace` and :class:`~repro.hw.phys.PhysicalMemory`/:class:`~repro.hw.phys.Frame`.
That only stays true if no caller outside ``repro.hw`` (and the
layout-owning ``repro.mem``) reaches into the representation: the flat
chunked arrays and banked arenas must be a private detail.

This test greps the source tree for the representation attributes;
anything it finds must either move to the public bulk interface
(``mapped_columns`` and its row view ``mapped_items``/``pte``/``map_run``/
``unmap_range``/``copy_frames``/``bump_versions``/``version_run``/
``restore_contents``/``tagged_frames``/``privatize_page``/
``tagged_granules``/``snapshot_content``/...) or be
added to the hw/mem layers themselves.

Two more greps keep retired surfaces retired.  There is one memory
representation, so no source, test, example or doc may name the old
host-speed switch, its package or its per-object flags.  There is one
page-table surface, the raw range API on ``AddressSpace``, so none may
name the retired per-entry view facade, its table class, the space
attribute that held it, or its frame-swap and note-listing helpers.
"""

import pathlib
import re

REPO_SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: attribute accesses that couple a caller to the storage representation
#: (the page-table chunk arrays, the banked frame store, and the
#: per-frame tag windows: ``core`` reaches tags only through
#: ``PhysicalMemory.tagged_frames``/``scan_tagged``)
_FORBIDDEN = re.compile(
    r"\.(_entries\b|_frames\b|_perms\b|_cow\b|tags\b(?!\w)"
    r"|_data_banks\b|_tag_banks\b|_data_views\b|_tag_views\b"
    r"|_frame_pool\b|_tag_store\b|_refcounts\b|_versions\b|_stale\b"
    r"|_views\b|_live\b)")

#: the layers that own the representations
_ALLOWED_PREFIXES = ("hw/", "mem/")

REPO_ROOT = REPO_SRC.parent.parent

#: references to the retired twin engine's switch (spelled with
#: character classes so this file does not match itself)
_RETIRED = re.compile(
    r"REPRO_PER[F]|repro\.per[f]|per[f]_(en|dis)abled|\.[_]perf\b")

#: names of the retired per-entry page-table view surface (character
#: classes again keep this file from matching itself)
_RETIRED_PAGING = re.compile(
    r"page[_]table|_Pte[V]iew|Page[T]able|replace[_]frame|noted[_]items")

#: the trees that must not mention either
_RETIRED_SCAN = ("src", "tests", "examples", "docs")


def _violations():
    found = []
    for path in sorted(REPO_SRC.rglob("*.py")):
        rel = path.relative_to(REPO_SRC).as_posix()
        if rel.startswith(_ALLOWED_PREFIXES):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            stripped = line.split("#", 1)[0]
            if _FORBIDDEN.search(stripped):
                found.append(f"src/repro/{rel}:{lineno}: {line.strip()}")
    return found


def test_no_representation_access_outside_hw_and_mem():
    violations = _violations()
    assert not violations, (
        "storage-representation attributes reached from outside "
        "repro.hw/repro.mem — use the public bulk interface instead:\n"
        + "\n".join(violations))


def _mentions(pattern):
    found = []
    for tree in _RETIRED_SCAN:
        for path in sorted((REPO_ROOT / tree).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                if pattern.search(line):
                    found.append(f"{rel}:{lineno}: {line.strip()}")
    return found


def test_retired_perf_switch_is_gone():
    found = _mentions(_RETIRED)
    assert not found, (
        "references to the retired twin engine (there is one memory "
        "representation):\n" + "\n".join(found))


def test_retired_pte_view_surface_is_gone():
    found = _mentions(_RETIRED_PAGING)
    assert not found, (
        "references to the retired page-table view surface (callers use "
        "the raw range API on AddressSpace):\n" + "\n".join(found))
