"""Hash placement for encrypted blobs on a storage server.

File number n starts probing at slot n*n mod S (S = seed = capacity) and
walks forward, wrapping at S, until a free slot turns up; the probe count is
recorded as the entry's offset. Deletion leaves a tombstone so probe chains
stay intact. Positions are 0-based: n=10 with S=100 lands on slot 0.
"""

from dataclasses import dataclass

from .errors import DuplicateFileNumber, InvalidSeed, NotFound, TableFull


@dataclass(frozen=True)
class PlacementEntry:
    position: int
    offset: int


class _Tombstone:
    __slots__ = ()

    def __repr__(self):
        return "<tombstone>"


_TOMBSTONE = _Tombstone()


class PlacementTable:
    """Open-addressed table of capacity S; slots hold (file_number, offset)."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 1:
            raise InvalidSeed(f"seed must be a positive integer, got {seed!r}")
        self.seed = seed
        self._slots: list = [None] * seed
        self.count = 0

    def _start(self, file_number: int) -> int:
        if not isinstance(file_number, int) or file_number < 1:
            raise ValueError(f"file number must be >= 1, got {file_number!r}")
        return (file_number * file_number) % self.seed

    def insert(self, file_number: int) -> PlacementEntry:
        """Place ``file_number``; returns its (position, offset).

        The first tombstone on the probe path is reused, but only after the
        scan has ruled out a duplicate further along the chain.
        """
        start = self._start(file_number)
        reuse = None  # first tombstone offset seen
        target = None
        for j in range(self.seed):
            pos = (start + j) % self.seed
            slot = self._slots[pos]
            if slot is None:
                target = j if reuse is None else reuse
                break
            if slot is _TOMBSTONE:
                if reuse is None:
                    reuse = j
            elif slot[0] == file_number:
                raise DuplicateFileNumber(f"file number {file_number} already placed")
        else:
            if reuse is None:
                raise TableFull(f"all {self.seed} slots occupied")
            target = reuse
        offset = target
        position = (start + offset) % self.seed
        self._slots[position] = (file_number, offset)
        self.count += 1
        return PlacementEntry(position=position, offset=offset)

    def locate(self, file_number: int) -> PlacementEntry:
        """Re-probe from n*n mod S until the slot holding n is found."""
        start = self._start(file_number)
        for j in range(self.seed):
            pos = (start + j) % self.seed
            slot = self._slots[pos]
            if slot is None:
                break
            if slot is not _TOMBSTONE and slot[0] == file_number:
                return PlacementEntry(position=pos, offset=slot[1])
        raise NotFound(f"file number {file_number} not in table")

    def remove(self, file_number: int) -> None:
        """Tombstone the slot so other probe chains keep working."""
        entry = self.locate(file_number)
        self._slots[entry.position] = _TOMBSTONE
        self.count -= 1

    def entries(self) -> list[tuple[int, int, int]]:
        """Live (position, file_number, offset) triples in position order."""
        return [
            (pos, slot[0], slot[1])
            for pos, slot in enumerate(self._slots)
            if slot is not None and slot is not _TOMBSTONE
        ]

    def slot_contents(self) -> list:
        """File number per slot, None for empty or tombstoned (oracle view)."""
        return [
            slot[0] if slot is not None and slot is not _TOMBSTONE else None
            for slot in self._slots
        ]

    # -- rebuilt from stored rows; rendered as text only for the admin dump ----

    def serialize(self) -> str:
        lines = [f"S={self.seed}"]
        for pos, file_number, offset in self.entries():
            lines.append(f"{pos}\t{file_number}\t{offset}")
        return "\n".join(lines) + "\n"

    @classmethod
    def restore(cls, seed: int, rows) -> "PlacementTable":
        """Rebuild from (position, file_number, offset) rows placed under
        ``seed``; tombstones are not kept, so their slots come back empty."""
        table = cls(seed)
        for pos, file_number, offset in rows:
            if not 0 <= pos < seed:
                raise ValueError(f"position {pos} outside [0, {seed})")
            if pos != (file_number * file_number + offset) % seed:
                raise ValueError(
                    f"row {(pos, file_number, offset)} breaks the placement law"
                    f" under S={seed}"
                )
            if table._slots[pos] is not None:
                raise ValueError(f"slot {pos} assigned twice")
            table._slots[pos] = (file_number, offset)
            table.count += 1
        return table
