"""Memory accounting matching the paper's reported totals.

Section 7.5: "The total memory allocated for the synopses in SketchTree
is equal to sum of the memory required for s1 × s2 iid instances of AMS
sketches, top-k data structures and independent random seeds".  With the
paper's parameters (s1 = 25, s2 = 7, p = 229 virtual streams) the sketch
component alone is ``25 · 7 · 229 · 8 B ≈ 320 KB`` — matching the 316 KB
plotted in Figure 10(a) — so we use the same unit costs: 8 bytes per
counter, 16 bytes per top-k slot, 8 bytes per ξ seed coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import SketchTreeConfig


@dataclass(frozen=True)
class MemoryReport:
    """Breakdown of a synopsis' memory, in bytes.

    ``provisioned_*`` is the paper-style total for all ``p`` virtual
    streams, which a synopsis allocates at construction.
    """

    provisioned_sketch_bytes: int
    provisioned_topk_bytes: int
    seed_bytes: int

    @classmethod
    def of(cls, config: "SketchTreeConfig") -> "MemoryReport":
        """The report of a synopsis built from ``config``."""
        p, cells = config.n_virtual_streams, config.s1 * config.s2
        return cls(
            provisioned_sketch_bytes=p * cells * 8,
            provisioned_topk_bytes=p * config.topk_size * 16,
            seed_bytes=cells * config.independence * 8,
        )

    @property
    def provisioned_total(self) -> int:
        """The paper's "total memory allocated" figure."""
        return (
            self.provisioned_sketch_bytes
            + self.provisioned_topk_bytes
            + self.seed_bytes
        )

    def format(self) -> str:
        """Human-readable one-liner (KB/MB like the paper's captions)."""
        return (
            f"sketches {_fmt(self.provisioned_sketch_bytes)} + "
            f"top-k {_fmt(self.provisioned_topk_bytes)} + "
            f"seeds {_fmt(self.seed_bytes)} = {_fmt(self.provisioned_total)}"
        )


def _fmt(n_bytes: int) -> str:
    if n_bytes >= 1 << 20:
        return f"{n_bytes / (1 << 20):.2f} MB"
    if n_bytes >= 1 << 10:
        return f"{n_bytes / (1 << 10):.0f} KB"
    return f"{n_bytes} B"
