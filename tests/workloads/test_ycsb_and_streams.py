"""Tests of the YCSB generator and the simpler workload streams."""

import random

import pytest

from repro.sim.random import LatestGenerator, ZipfianGenerator, weighted_choice
from repro.workloads.kv import preload_keys, read_mostly_workload, update_only_workload
from repro.workloads.ycsb import (
    MAX_SCAN_LENGTH,
    RECORD_BYTES,
    YCSB_WORKLOADS,
    WorkloadSpec,
    YCSBWorkload,
    ycsb_key,
    ycsb_keyspace,
)


class TestYCSBDefinitions:
    def test_all_six_workloads_defined(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mixes_sum_to_one(self):
        for spec in YCSB_WORKLOADS.values():
            assert sum(w for _, w in spec.mix()) == pytest.approx(1.0)

    def test_keyspace(self):
        keyspace = ycsb_keyspace(10)
        assert len(keyspace) == 10
        assert all(size == RECORD_BYTES for size in keyspace.values())
        assert ycsb_key(3) in keyspace


def _reference_zipf_next(zipf):
    """``ZipfianGenerator.next`` as it was, recomputing ``0.5 ** theta``."""
    u = zipf._rng.random()
    uz = u * zipf._zetan
    if uz < 1.0:
        return 0
    if uz < 1.0 + 0.5 ** zipf._theta:
        return 1
    key = int(zipf._items * (zipf._eta * u - zipf._eta + 1) ** zipf._alpha)
    return key if key < zipf._items else zipf._items - 1


def _reference_operations(spec, records, seed, count):
    """The generator as it was: ``weighted_choice`` per draw.  Run with
    :func:`_reference_zipf_next` patched in, it pins the precomputed mix
    bounds and zipf constant to the exact same op/key sequence."""
    rng = random.Random(seed)
    mix = spec.mix()
    inserted = records
    latest = spec.distribution == "latest"
    keys = LatestGenerator(records, rng) if latest else ZipfianGenerator(records, rng)
    ops = []
    for _ in range(count):
        op = weighted_choice(rng, mix)
        if op == "insert":
            ops.append((op, ycsb_key(inserted)))
            inserted += 1
            if latest:
                keys.record_insert()
            continue
        index = min(keys.next(), inserted - 1)
        if op == "scan":
            length = rng.randint(1, MAX_SCAN_LENGTH)
            start = min(keys.next(), inserted - 1)
            ops.append((op, ycsb_key(start), ycsb_key(min(start + length, inserted - 1))))
        else:
            ops.append((op, ycsb_key(index)))
    return ops


class TestYCSBGenerator:
    def _workload(self, name, seed=1, records=500):
        return YCSBWorkload(YCSB_WORKLOADS[name], record_count=records, rng=random.Random(seed))

    @pytest.mark.parametrize("name", sorted(YCSB_WORKLOADS))
    @pytest.mark.parametrize("seed", [1, 7, 1001])
    def test_sequence_matches_reference_generator(self, name, seed, monkeypatch):
        workload = self._workload(name, seed=seed, records=300)
        produced = []
        for _ in range(2000):
            op, key, _, end_key = workload.next_operation()
            produced.append((op, key, end_key) if op == "scan" else (op, key))
        monkeypatch.setattr(ZipfianGenerator, "next", _reference_zipf_next)
        assert produced == _reference_operations(YCSB_WORKLOADS[name], 300, seed, 2000)

    def test_workload_a_mixes_reads_and_updates(self):
        workload = self._workload("A")
        ops = [workload.next_operation()[0] for _ in range(1000)]
        reads, updates = ops.count("read"), ops.count("update")
        assert 350 < reads < 650
        assert reads + updates == 1000

    def test_workload_c_is_read_only(self):
        workload = self._workload("C")
        assert {workload.next_operation()[0] for _ in range(200)} == {"read"}

    def test_workload_d_inserts_extend_the_keyspace(self):
        workload = self._workload("D", records=100)
        before = workload.record_count
        for _ in range(500):
            workload.next_operation()
        assert workload.record_count > before
        assert workload.issued_counts().get("insert", 0) > 0

    def test_workload_e_generates_bounded_scans(self):
        workload = self._workload("E")
        scans = [op for op in (workload.next_operation() for _ in range(500)) if op[0] == "scan"]
        assert scans
        for op, start, _size, end in scans:
            assert end is not None and end >= start

    def test_workload_f_contains_read_modify_write(self):
        workload = self._workload("F")
        ops = {workload.next_operation()[0] for _ in range(300)}
        assert ops == {"read", "read-modify-write"}

    def test_keys_stay_in_range(self):
        workload = self._workload("A", records=50)
        for _ in range(500):
            op, key, _size, _end = workload.next_operation()
            assert key in ycsb_keyspace(workload.record_count) or op == "insert"

    def test_determinism_per_seed(self):
        first_gen = self._workload("A", seed=9)
        first = [first_gen.next_operation() for _ in range(50)]
        second_gen = self._workload("A", seed=9)
        second = [second_gen.next_operation() for _ in range(50)]
        assert first == second

    def test_requires_records(self):
        with pytest.raises(ValueError):
            YCSBWorkload(YCSB_WORKLOADS["A"], record_count=0, rng=random.Random(1))

    def test_callable_interface(self):
        workload = self._workload("B")
        op, key, size, end = workload(0)
        assert op in ("read", "update")


class TestSimpleWorkloads:
    def test_update_only_workload(self):
        workload = update_only_workload(random.Random(1), key_count=10, value_bytes=256)
        for i in range(20):
            op, key, size, end = workload(i)
            assert op == "update" and size == 256 and key.startswith("key")

    def test_read_mostly_workload_fraction(self):
        workload = read_mostly_workload(random.Random(2), key_count=10, update_fraction=0.2)
        ops = [workload(i)[0] for i in range(500)]
        assert 0.1 < ops.count("update") / len(ops) < 0.35

    def test_read_mostly_invalid_fraction(self):
        with pytest.raises(ValueError):
            read_mostly_workload(random.Random(1), update_fraction=1.5)

    def test_preload_keys_match_workload_prefix(self):
        keys = preload_keys(5, value_bytes=64)
        assert len(keys) == 5
        assert all(size == 64 for size in keys.values())
        workload = update_only_workload(random.Random(3), key_count=5)
        assert workload(0)[1] in keys
