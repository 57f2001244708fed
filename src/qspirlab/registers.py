"""Named bit-register layouts.

A layout is an ordered sequence of ``(name, width)`` registers.  Basis
strings over a layout are stored as integers: the first register occupies
the most significant bits, and within a register the first bit is the most
significant.  ``bits()``/``parse_bits()`` convert between that integer form
and the left-to-right string form used in displays and serialized files.

A layout works out each register's ``(shift, width)`` address when it is
built, and keeps what ``pieces`` and ``concat`` return, so the state ops
pay a dict lookup per call.  An unknown register raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def bits(value: int, width: int) -> str:
    """Render an integer as a fixed-width bit string (empty for width 0)."""
    if width == 0:
        return ""
    return format(value, f"0{width}b")


def parse_bits(text: str) -> int:
    return int(text, 2) if text else 0


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(n), int(w)) for n, w in self.registers)
        object.__setattr__(self, "registers", regs)
        names = tuple(n for n, _ in regs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {list(names)}")
        if any(w < 0 for _, w in regs):
            raise ValueError("register widths must be >= 0")
        width = sum(w for _, w in regs)
        addresses = {}
        shift = width
        for name, w in regs:
            shift -= w
            addresses[name] = (shift, w)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_addresses", addresses)
        object.__setattr__(self, "_pieces", {})   # names -> pieces, successful lookups only
        object.__setattr__(self, "_concats", {})  # other layout -> self.concat(other)

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple(pairs))

    def __contains__(self, name: str) -> bool:
        return name in self._addresses

    def width_of(self, name: str) -> int:
        return self.piece(name)[1]

    def piece(self, name: str) -> tuple[int, int]:
        """(shift, width) addressing a register inside an integer basis key."""
        try:
            return self._addresses[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}; layout has {self.names}") from None

    def pieces(self, names: Iterable[str] | str) -> tuple[tuple[int, int], ...]:
        """Pieces for several registers, concatenated in the order given.

        Each run of names that are adjacent and in layout order merges into
        one piece, so the kernels address it as a single bit field; the
        concatenated sub-key is the same.
        """
        names = (names,) if isinstance(names, str) else tuple(names)
        found = self._pieces.get(names)
        if found is not None:
            return found
        merged = []
        for name in names:
            shift, w = self.piece(name)
            if merged and merged[-1][0] == shift + w:
                merged[-1] = (shift, merged[-1][1] + w)
            else:
                merged.append((shift, w))
        found = self._pieces[names] = tuple(merged)
        return found

    def in_layout_order(self, names: Iterable[str]) -> tuple[str, ...]:
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise KeyError(f"unknown registers {sorted(unknown)}; layout has {self.names}")
        return tuple(n for n in self.names if n in wanted)

    def sub_layout(self, names: Sequence[str]) -> "RegisterLayout":
        """New layout over the named registers, keeping this layout's order."""
        ordered = self.in_layout_order(names)
        return RegisterLayout(tuple((n, self.width_of(n)) for n in ordered))

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        joined = self._concats.get(other)
        if joined is None:
            overlap = set(self.names) & set(other.names)
            if overlap:
                raise ValueError(f"register name collision: {sorted(overlap)}")
            joined = self._concats[other] = RegisterLayout(self.registers + other.registers)
        return joined

    def key_bits(self, key: int) -> str:
        return bits(key, self.width)

    def key_of(self, text: str) -> int:
        if len(text) != self.width:
            raise ValueError(f"basis string {text!r} does not match width {self.width}")
        return parse_bits(text)

    def assemble(self, values: dict[str, int]) -> int:
        """Basis key from per-register values (missing registers are 0)."""
        key = 0
        for name, w in self.registers:
            v = values.get(name, 0)
            if v >> w:
                raise ValueError(f"value {v} too wide for register {name} ({w} bits)")
            key = (key << w) | v
        return key

    def to_json(self) -> list[list]:
        return [[n, w] for n, w in self.registers]

    @classmethod
    def from_json(cls, data) -> "RegisterLayout":
        return cls(tuple((n, w) for n, w in data))
