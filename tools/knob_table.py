"""Render README's knob table from the run-spec field metadata.

Run:  python tools/knob_table.py

and paste the output between README's ``knob-table`` markers
(``tests/core/test_runspec.py`` fails while the two differ).
"""

from __future__ import annotations

from repro.core.config import SURFACES
from repro.core.runspec import SURFACE_DEFAULTS, flag_of
from repro.serve import JobSpec


def knob_table() -> str:
    """The table (markdown), one row per knob.

    ``library`` is the field's own default; a surface cell is the
    default there (the serve body takes the knob name as its key),
    ``—`` where the surface does not expose the knob; ``id`` marks the
    knobs a checkpoint must match.
    """
    rows = [
        "| knob | flag | library | train | trace | serve | id | meaning |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for f in JobSpec.all_knobs():
        meta = f.metadata
        flags = dict.fromkeys(
            flag_of(f, s) for s in ("train", "trace") if s in meta["surfaces"]
        )
        cells = [
            f"`{SURFACE_DEFAULTS[s].get(f.name, f.default)!r}`"
            if s in meta["surfaces"] else "—"
            for s in SURFACES
        ]
        rows.append(" | ".join([
            f"| `{f.name}`",
            " / ".join(f"`{flag}`" for flag in flags) or "—",
            f"`{f.default!r}`",
            *cells,
            "yes" if meta["identity"] else "",
            meta["help"].replace("<", "&lt;") + " |",
        ]))
    return "\n".join(rows)


if __name__ == "__main__":
    print(knob_table())
