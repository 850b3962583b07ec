import random

import pytest

from cloudvault.errors import DuplicateFileNumber, InvalidSeed, NotFound, TableFull
from cloudvault.placement import PlacementEntry, PlacementTable


class BruteForceTable:
    """Independent simulator: a plain dict of position -> file number, probed
    one step at a time with no shared code or structure with the real table."""

    def __init__(self, seed):
        self.seed = seed
        self.by_position = {}
        self.results = {}

    def insert(self, n):
        position = (n * n) % self.seed
        offset = 0
        while position in self.by_position:
            position = (position + 1) % self.seed
            offset += 1
            if offset > self.seed:
                raise RuntimeError("full")
        self.by_position[position] = n
        self.results[n] = (position, offset)
        return position, offset


def sequential_insert(table, upto):
    return {n: table.insert(n) for n in range(1, upto + 1)}


# ---------------------------------------------------------------------
# The published sample table: seed 100, files inserted in sequence

def test_sample_table_rows():
    table = PlacementTable(100)
    entries = sequential_insert(table, 15)
    assert entries[1] == PlacementEntry(1, 0)
    assert entries[2] == PlacementEntry(4, 0)
    assert entries[5] == PlacementEntry(25, 0)
    # 15*15 = 225 -> slot 25 already holds file 5, so one probe forward.
    assert entries[15] == PlacementEntry(26, 1)


def test_file_twenty_probes_twice():
    # 20*20 mod 100 = 0 (file 10) then 1 (file 1); slot 2 is first free.
    # Frozen from the BruteForceTable simulator.
    table = PlacementTable(100)
    sequential_insert(table, 19)
    assert table.insert(20) == PlacementEntry(2, 2)
    oracle = BruteForceTable(100)
    for n in range(1, 21):
        oracle.insert(n)
    assert oracle.results[20] == (2, 2)


def test_position_zero_is_reachable():
    table = PlacementTable(100)
    entries = sequential_insert(table, 10)
    assert entries[10] == PlacementEntry(0, 0)  # 100 mod 100


def test_probe_wraps_around_the_end():
    table = PlacementTable(5)
    assert table.insert(2) == PlacementEntry(4, 0)  # 4 mod 5
    assert table.insert(3) == PlacementEntry(0, 1)  # 9 mod 5 = 4 taken, wrap


# ---------------------------------------------------------------------
# Constructor and bounds

def test_new_table_shapes():
    table = PlacementTable(100)
    assert table.seed == 100 and table.count == 0
    assert table.slot_contents() == [None] * 100
    assert PlacementTable(1).seed == 1


@pytest.mark.parametrize("bad_seed", [0, -3])
def test_invalid_seed(bad_seed):
    with pytest.raises(InvalidSeed):
        PlacementTable(bad_seed)


def test_duplicate_insert_rejected():
    table = PlacementTable(100)
    table.insert(7)
    with pytest.raises(DuplicateFileNumber):
        table.insert(7)


def test_exactly_one_table_full_error():
    table = PlacementTable(13)
    errors = 0
    for n in range(1, 15):
        try:
            table.insert(n)
        except TableFull:
            errors += 1
    assert errors == 1
    assert table.count == 13


def test_locate_on_full_table_terminates():
    table = PlacementTable(7)
    for n in range(1, 8):
        table.insert(n)
    with pytest.raises(NotFound):
        table.locate(100)


# ---------------------------------------------------------------------
# locate

def test_locate_empty_table():
    with pytest.raises(NotFound):
        PlacementTable(100).locate(1)


def test_locate_agrees_with_insert_on_random_run():
    rng = random.Random(701)
    table = PlacementTable(701)
    numbers = rng.sample(range(1, 10_000), 500)
    recorded = {n: table.insert(n) for n in numbers}
    for n, entry in recorded.items():
        assert table.locate(n) == entry


def test_sample_sequence_locate():
    table = PlacementTable(100)
    sequential_insert(table, 15)
    assert table.locate(15) == PlacementEntry(26, 1)


# ---------------------------------------------------------------------
# removal and tombstones

def test_remove_then_locate_fails():
    table = PlacementTable(100)
    table.insert(5)
    table.remove(5)
    with pytest.raises(NotFound):
        table.locate(5)


def test_remove_preserves_probe_chains():
    table = PlacementTable(100)
    sequential_insert(table, 15)
    table.remove(5)  # slot 25 becomes a tombstone, not a hole
    assert table.locate(15) == PlacementEntry(26, 1)


def test_remove_unknown():
    with pytest.raises(NotFound):
        PlacementTable(100).remove(9)


def test_tombstone_slot_is_reusable():
    table = PlacementTable(100)
    sequential_insert(table, 15)
    table.remove(5)
    assert table.insert(35) == PlacementEntry(25, 0)  # 1225 mod 100
    assert table.locate(15) == PlacementEntry(26, 1)


# ---------------------------------------------------------------------
# invariants over random operation sequences

def test_offset_law_and_injectivity():
    rng = random.Random(4242)
    table = PlacementTable(101)
    live = set()
    for step in range(400):
        if live and rng.random() < 0.3:
            victim = rng.choice(sorted(live))
            table.remove(victim)
            live.discard(victim)
        else:
            n = rng.randint(1, 100_000)
            if n in live:
                continue
            try:
                table.insert(n)
            except TableFull:
                continue
            live.add(n)
        positions = set()
        for position, file_number, offset in table.entries():
            assert 0 <= offset < table.seed
            assert position == (file_number * file_number + offset) % table.seed
            assert position not in positions
            positions.add(position)
    assert table.count == len(live)


@pytest.mark.parametrize("seed", [7, 100, 101])
def test_matches_brute_force_simulator(seed):
    rng = random.Random(seed * 31)
    for _ in range(40):
        count = rng.randint(1, seed)
        numbers = rng.sample(range(1, 5000), count)
        table = PlacementTable(seed)
        oracle = BruteForceTable(seed)
        for n in numbers:
            entry = table.insert(n)
            assert (entry.position, entry.offset) == oracle.insert(n)
        oracle_slots = [oracle.by_position.get(i) for i in range(seed)]
        assert table.slot_contents() == oracle_slots
        for n in numbers:
            assert (table.locate(n).position, table.locate(n).offset) == oracle.results[n]


# ---------------------------------------------------------------------
# serialization and restore from stored rows

def test_serialize_round_trip():
    table = PlacementTable(100)
    sequential_insert(table, 15)
    text = table.serialize()
    assert text.splitlines()[0] == "S=100"
    assert "26\t15\t1" in text
    clone = PlacementTable.restore(100, table.entries())
    assert clone.slot_contents() == table.slot_contents()
    assert clone.count == table.count
    assert clone.serialize() == text
    assert clone.locate(15) == PlacementEntry(26, 1)


def test_serialization_is_deterministic():
    def build():
        table = PlacementTable(101)
        for n in (9, 4, 44, 13, 104):
            table.insert(n)
        return table.serialize()

    assert build() == build()


def test_restore_rejects_bad_rows():
    with pytest.raises(ValueError, match="placement law"):
        PlacementTable.restore(10, [(3, 4, 0)])  # 16 mod 10 != 3
    with pytest.raises(ValueError, match="outside"):
        PlacementTable.restore(10, [(16, 4, 0)])
    with pytest.raises(ValueError, match="outside"):
        PlacementTable.restore(10, [(-4, 4, 0)])
    with pytest.raises(ValueError, match="assigned twice"):
        PlacementTable.restore(10, [(6, 4, 0), (6, 14, 0)])  # 16, 196 mod 10
