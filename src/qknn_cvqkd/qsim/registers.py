"""Qubit register bookkeeping for the state-vector simulator.

Qubit ordering is little-endian throughout the package: qubit 0 is the least
significant bit of a basis-state index. A ``Span`` names a contiguous block of
qubits, so the integer held by a span of width ``w`` at offset ``o`` is
``(index >> o) & (2**w - 1)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Span(NamedTuple):
    """Contiguous block of qubits: ``offset`` is the lowest qubit index."""

    offset: int
    width: int

    @property
    def qubits(self) -> range:
        return range(self.offset, self.offset + self.width)

    def value_of(self, basis_index: int) -> int:
        return (basis_index >> self.offset) & ((1 << self.width) - 1)


def as_span(span) -> Span:
    if isinstance(span, Span):
        return span
    offset, width = span
    return Span(int(offset), int(width))


@dataclass
class RegisterLayout:
    """Named, disjoint spans inside one register file of ``n_qubits`` qubits.

    Used to map logical register names (index register, feature register,
    flag qubits, ...) onto concrete qubit positions.
    """

    n_qubits: int
    spans: dict[str, Span] = field(default_factory=dict)

    def add(self, name: str, width: int) -> Span:
        """Append a span of ``width`` qubits after the last allocated qubit."""
        offset = self.allocated
        if offset + width > self.n_qubits:
            raise ValueError(
                f"register '{name}' ({width} qubits) does not fit: "
                f"{offset + width} > {self.n_qubits}"
            )
        if name in self.spans:
            raise ValueError(f"duplicate register name '{name}'")
        span = Span(offset, width)
        self.spans[name] = span
        return span

    def __getitem__(self, name: str) -> Span:
        return self.spans[name]

    @property
    def allocated(self) -> int:
        return sum(s.width for s in self.spans.values())

    @classmethod
    def build(cls, **widths: int) -> "RegisterLayout":
        """Create a layout from ``name=width`` pairs, packed from qubit 0 up."""
        layout = cls(n_qubits=sum(widths.values()))
        for name, width in widths.items():
            layout.add(name, width)
        return layout
