"""The Dynamic Hybrid Hash Join operator (paper §2.3, §5–§8).

A faithful implementation of AsterixDB's Dynamic HHJ with every design
knob the paper studies made pluggable:

* number of partitions (§4): explicit, or the paper's robust policy
  (default 20; Eq. 2 with a lower bound of 20 for later rounds);
* partition insertion (§5): any :mod:`repro.insertion` policy;
* growth policy for spilled partitions (§6): NG-NS or G-S;
* victim selection (§7): any of the 13 :mod:`repro.victim` policies.

The §8 optimizations are fixed behaviour, as in AsterixDB: role
reversal, bail-out to block-nested-loop join, the in-memory hash join
shortcut and reloading spilled partitions are always on.

Each round reads its input a batch at a time (``BATCH_RECORDS``, the
operator's input buffer, like AsterixDB's input frame) and routes each
build batch with one ``split_partition`` call, and each probe batch too
once a partition of the round has spilled (with none spilled, every
probe record goes to the hash table); insertion, spilling and probing
stay record at a time, in input order.

Every round hands out one lazy pair iterator per probe batch (DESIGN.md
§10).

Records are ``(key, size_bytes, payload)`` tuples (:data:`Record`), the
caller's layout and the operator's: frames, spill files, replays and the
fallback joins all use it unchanged, and the hash table (key → payload,
DESIGN.md §9) is built from the records where they lie. ``_admit`` lets
a batch of the caller's tuples through as they are when every key is a
plain ``int``, and rebuilds any other batch with canonical keys
(DESIGN.md §8). In *stats-only* use (the experiment
harnesses) payloads may be ``None``; the operator's control flow depends
only on keys and sizes, so measurements are identical either way. All
I/O is accounted in :class:`JoinStats` and the actual write trace, which
the storage model replays into device times.
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..frames.frame import DEFAULT_FRAME_BYTES
from ..frames.partition import Partition, SpillFiles
from ..frames.pool import BufferPool
from ..frames.spillfile import DiskSpillFile, MemorySpillFile, Record
from ..growth.policies import NAMES as GROWTHS
from ..growth.policies import GrowthPolicy
from ..growth.policies import make_policy as make_growth
from ..insertion.policies import NAMES as INSERTIONS
from ..insertion.policies import InsertionPolicy
from ..insertion.policies import make_policy as make_insertion
from ..victim.policies import NAMES as VICTIMS
from ..victim.policies import make_policy as make_victim
from .partitions import TABLE1_FUDGE, robust_num_partitions
from .split import split_partition
from .stats import JoinStats, Phase

Pair = Tuple[Any, Any]

#: §8.1: a later round whose build input is not at least this share smaller
#: than its parent's stops hashing and bails out to BNLJ.
BAILOUT_SHRINK = 0.2
#: Recursion guard: rounds deeper than this go straight to BNLJ.
MAX_LEVELS = 30
#: Records a round reads and routes per ``split_partition`` call: the
#: operator's input buffer (AsterixDB's input frame), outside the frame
#: budget.
BATCH_RECORDS = 4096

_key = itemgetter(0)
_size = itemgetter(1)
_payload = itemgetter(2)
#: ``_probe_table``'s miss marker: a stored payload may be ``None``.
_MISS = object()


def _batches(records: Iterable[Any]) -> Iterator[List[Any]]:
    """``records`` in lists of up to ``BATCH_RECORDS``, in order."""
    it = iter(records)
    while batch := list(islice(it, BATCH_RECORDS)):
        yield batch


def _blocks(records: Iterable[Record], block_bytes: int) -> Iterator[List[Record]]:
    """``records`` in lists of at most ``block_bytes`` bytes (or one record)."""
    block: List[Record] = []
    used = 0
    for rec in records:
        if used + rec[1] > block_bytes and block:
            yield block
            block, used = [], 0
        block.append(rec)
        used += rec[1]
    if block:
        yield block


class _NaN(float):
    """NaN as a join key: a float that pickles as a reference to
    :data:`NAN`, so a record replayed from a disk spill file still holds
    that one object."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "NAN"


#: The one object every NaN key becomes. NaN equals nothing, but a dict
#: lookup tries identity first, so this object matches itself: NaN keys
#: join each other, as NaN = NaN does in Spark SQL joins.
NAN = _NaN("nan")


def _canonical(key: Any) -> Any:
    """``key`` as the plain Python value it equals: a numpy scalar's
    ``item()``, an integral float as an int, and any NaN as :data:`NAN`."""
    if hasattr(key, "item"):
        key = key.item()
    if isinstance(key, float):
        if key.is_integer():
            key = int(key)
        elif key != key:
            key = NAN
    return key


class _Many(list):
    """The build payloads of a key that repeats, in input order: the one
    hash-table value that is not a payload itself (a payload may be a
    ``list``, never a :class:`_Many`)."""

    __slots__ = ()


@dataclass
class HHJConfig:
    """All knobs of one Dynamic HHJ execution."""

    memory_frames: int
    frame_bytes: int = DEFAULT_FRAME_BYTES
    num_partitions: Optional[int] = None     # None → robust §4 policy
    #: a §5 policy name, or a factory pid → policy instance
    insertion: Union[str, Callable[[int], InsertionPolicy]] = "append(8)"
    victim: str = "largest-size"
    growth: str = "ng-ns"
    min_partitions: int = 20                 # §4 lower bound for later rounds
    use_disk_spill: bool = False             # real tempfiles (Spark executors)
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.memory_frames < 3:
            raise ValueError("Dynamic HHJ needs >= 3 memory frames")
        if self.frame_bytes <= 0:
            raise ValueError(f"frame_bytes must be positive, got {self.frame_bytes}")
        if self.num_partitions is not None and not (
            2 <= self.num_partitions <= self.memory_frames
        ):
            raise ValueError(
                f"num_partitions must lie in [2, memory_frames={self.memory_frames}]"
            )
        # an unknown name fails where the config is made, not in a Spark
        # worker; the policy factories only index their tables
        for kind, name, names in (("insertion", self.insertion, INSERTIONS),
                                  ("victim", self.victim, VICTIMS),
                                  ("growth", self.growth, GROWTHS)):
            if not (kind == "insertion" and callable(name)) and name not in names:
                raise KeyError(f"unknown {kind} policy {name!r}; choose from {sorted(names)}")


class DynamicHybridHashJoin:
    """One (multi-round) Dynamic HHJ execution with its statistics."""

    def __init__(self, cfg: HHJConfig) -> None:
        self.cfg = cfg
        self.stats = JoinStats(frame_bytes=cfg.frame_bytes)
        #: one §7 policy for the whole run, handed to each round's growth
        #: policy, so a stateful policy's stream spans rounds
        self.victim = make_victim(cfg.victim)

    # -- factories -------------------------------------------------------
    def _spill_files(self, phase: Phase, level: int) -> SpillFiles:
        """The spill files of one side of one round, made per partition."""
        cfg, stats = self.cfg, self.stats
        if cfg.use_disk_spill:
            # one temp file for the side, opened by its first spill file
            shared: List[Any] = []
            return lambda pid: DiskSpillFile(stats, phase, pid, level, shared,
                                             cfg.spill_dir)
        return lambda pid: MemorySpillFile(stats, phase, pid, level)

    def _new_partitions(self, p: int, pool: BufferPool,
                        spill_files: SpillFiles) -> List[Partition]:
        ins = self.cfg.insertion
        # a name seeds each partition's policy with its pid (Random(%p)'s stream)
        new_policy = ins if callable(ins) else lambda pid: make_insertion(ins, seed=pid)
        return [Partition(pid, self.cfg.frame_bytes, pool, spill_files, new_policy(pid))
                for pid in range(p)]

    def _admit(self, records: Iterable[Record]) -> Iterator[List[Record]]:
        """Every input record enters the operator here, exactly once, in
        batches of ``BATCH_RECORDS``.

        The operator's only key canonicalisation (1, 1.0 and np.int64(1)
        all join together) and its only record-size check, for both
        sides. A batch of 3-tuples whose keys are all plain ints (the
        type test of ``split._bases``) is already canonical and passes
        through as the caller's own list of tuples; any other batch is
        rebuilt with canonical keys. Spilled records keep the canonical
        key, so later rounds, reload and the fallback joins never redo
        either.
        """
        fb = self.cfg.frame_bytes
        for batch in _batches(records):
            if not (set(map(type, batch)) == {tuple} and set(map(len, batch)) == {3}
                    and set(map(type, map(_key, batch))) == {int}):
                batch = [(key if type(key) is int else _canonical(key), size, payload)
                         for key, size, payload in batch]
            sizes = list(map(_size, batch))
            if not (0 < min(sizes) and max(sizes) <= fb):
                for size in sizes:
                    if not 0 < size <= fb:
                        raise ValueError(f"record of {size} B is outside (0, {fb}] B: "
                                         "records must be non-empty and fit one frame")
            yield batch

    # -- public API ------------------------------------------------------
    def run(self, build: Iterable[Record],
            probe: Iterable[Record]) -> Iterator[Pair]:
        """Execute the join lazily: a generator of (build_payload,
        probe_payload) pairs; ``close()`` it to stop early."""
        with closing(self._round(self._admit(build), self._admit(probe), 0,
                                 None, None, False)) as batches:
            for pairs in batches:
                yield from pairs

    def run_collect(self, build: Iterable[Record],
                    probe: Iterable[Record]) -> List[Pair]:
        out: List[Pair] = []
        with closing(self._round(self._admit(build), self._admit(probe), 0,
                                 None, None, False)) as batches:
            for pairs in batches:
                out.extend(pairs)
        return out

    def build_only(self, build: Iterable[Record]) -> List[Partition]:
        """Run just the round-0 build phase (victim/growth experiments).

        Includes the end-of-build flush of spilled partitions so the
        write trace covers the whole build phase, then returns the
        partitions for inspection.
        """
        growth, _frames = self._build(self._admit(build), 0, None)
        self._collect_search_stats(growth.partitions)
        return growth.partitions

    # -- one round -------------------------------------------------------
    def _build(self, build: Iterator[List[Record]], level: int,
               build_frames: Optional[int]) -> Tuple[GrowthPolicy, int]:
        """One round's build phase: choose P, partition the batches of
        ``build`` within the frame budget, flush the spilled partitions'
        tails.

        Returns the round's growth policy, which holds its partitions and
        the pool funding their frames, and the build input's size in
        frames. Round 0 records its resident frames and bytes in the
        stats (the paper's end-of-build frame fullness). On an exception
        the partitions' search counts are collected and the partitions
        closed.
        """
        cfg = self.cfg
        if build_frames is not None:
            p = robust_num_partitions(cfg.memory_frames, build_frames,
                                      cfg.min_partitions)
        else:
            p = cfg.num_partitions or robust_num_partitions(cfg.memory_frames)

        partitions = self._new_partitions(p, BufferPool(cfg.memory_frames),
                                          self._spill_files("build", level))
        growth = make_growth(cfg.growth, self.victim, self.stats, partitions)
        make_room, insert_spilled = growth.make_room, growth.insert_spilled
        try:
            for batch in build:
                self.stats.records_processed += len(batch)
                pids = split_partition(list(map(_key, batch)), p, level)
                for rec, pid in zip(batch, pids):
                    part = partitions[pid]
                    if part.spilled or not part.place(rec, make_room):
                        insert_spilled(part, rec)
            # every spilled partition's leftover frames go to disk
            for q in partitions:
                if q.spilled:
                    growth.flush_spilled(q, keep_buffer=False)
        except BaseException:
            self._collect_search_stats(partitions)
            for q in partitions:
                q.close()
            raise
        if level == 0:
            self.stats.resident_frames = sum(q.num_frames for q in partitions)
            self.stats.resident_bytes = sum(q.in_memory_bytes for q in partitions)
        # every build record is now in a resident frame or its partition's file
        build_bytes = sum(q.spill_file.bytes_written if q.spilled else q.in_memory_bytes
                          for q in partitions)
        return growth, max(1, -(-build_bytes // cfg.frame_bytes))

    def _round(self, build: Iterator[List[Record]], probe: Iterator[List[Record]],
               level: int, build_frames: Optional[int],
               parent_build_frames: Optional[int], swapped: bool) -> Iterator[Iterator[Pair]]:
        """The join kernel one round takes, by its level and build size,
        over the two sides' record batches: a generator of one lazy pair
        iterator per probe batch."""
        # §8.1 bail-out: hashing is not shrinking the data — stop hashing.
        if level > MAX_LEVELS or (
                level > 0 and build_frames >= (1.0 - BAILOUT_SHRINK) * parent_build_frames):
            return self._bnlj(build, probe, swapped)
        # §8.3 in-memory shortcut: known-small build skips partitioning.
        if level > 0 and build_frames * TABLE1_FUDGE <= self.cfg.memory_frames:
            return self._in_memory_join(build, probe, swapped)
        return self._hash_round(build, probe, level, build_frames, swapped)

    def _hash_round(self, build: Iterator[List[Record]], probe: Iterator[List[Record]],
                    level: int, build_frames: Optional[int],
                    swapped: bool) -> Iterator[Iterator[Pair]]:
        """One hashing round: build, probe a batch at a time, then recurse
        (§2.3) on each spilled pair that has records on both sides."""
        cfg, stats = self.cfg, self.stats
        stats.rounds += 1
        growth, this_build_frames = self._build(build, level, build_frames)
        partitions, pool = growth.partitions, growth.pool
        p = len(partitions)
        probe_parts: Dict[int, Partition] = {}
        try:
            # §8.5 reload spilled partitions that fit the leftover memory.
            self._reload_spilled(partitions, pool)

            # Make room for one probe output buffer per spilled partition.
            growth.reserve_probe_buffers()

            resident = [q for q in partitions if not q.spilled]
            spilled = [q for q in partitions if q.spilled]
            table = self._hash_table([f for q in resident for f in q.frames])

            # ---------------- probe phase ----------------
            # one output buffer per spilled partition, reserved above and
            # allocated on its first record
            probe_files = self._spill_files("probe", level)
            for q in spilled:
                probe_parts[q.pid] = Partition(q.pid, cfg.frame_bytes, pool, probe_files)
            for batch in probe:
                stats.records_processed += len(batch)
                to_probe = batch
                if probe_parts:        # route only when some partition spilled
                    pids = split_partition(list(map(_key, batch)), p, level)
                    to_probe = []
                    for rec, pid in zip(batch, pids):
                        pp = probe_parts.get(pid)
                        if pp is not None:
                            pp.append_buffered(rec)
                        else:
                            to_probe.append(rec)
                stats.hash_probes += len(to_probe)
                yield self._probe_table(table, to_probe, swapped)
            for pp in probe_parts.values():
                pp.write_out(keep_buffer=False)

            del table
            for q in resident:
                q.close()

            # ---------------- recursion on spilled pairs ----------------
            for q in spilled:
                pp = probe_parts[q.pid]
                bfile, pfile = q.spill_file, pp.spill_file
                b_frames = bfile.frames_written if bfile else 0
                p_frames = pfile.frames_written if pfile else 0
                if b_frames and p_frames:
                    child_build = _batches(bfile.replay())
                    child_probe = _batches(pfile.replay())
                    child_bf, child_swapped = b_frames, swapped
                    # §8.2 role reversal: the smaller side builds.
                    if p_frames < b_frames:
                        child_build, child_probe = child_probe, child_build
                        child_bf, child_swapped = p_frames, not swapped
                        stats.role_reversals += 1
                    yield from self._round(child_build, child_probe, level + 1,
                                           child_bf, this_build_frames, child_swapped)
                q.close()
                pp.close()
        finally:
            # every exit path, early generator close and exceptions included
            self._collect_search_stats(partitions)
            for q in [*partitions, *probe_parts.values()]:
                q.close()

    # -- reload and search counts ----------------------------------------
    def _reload_spilled(self, partitions: List[Partition], pool: BufferPool) -> None:
        """§8.5: pull back spilled partitions that now fit in free memory,
        smallest spill file first."""
        reloadable = sorted(
            (q for q in partitions
             if q.spilled and q.spill_file and q.spill_file.frames_written > 0),
            key=lambda q: (q.spill_file.frames_written, q.pid),
        )
        for q in reloadable:
            need = q.spill_file.frames_written
            if need * TABLE1_FUDGE <= pool.free:
                self.stats.frames_reloaded += need
                q.reload()

    def _collect_search_stats(self, partitions: List[Partition]) -> None:
        """Add the round's insertion searches to the stats; called once
        per round, on every exit path."""
        self.stats.frames_searched += sum(q.insertion.frames_searched for q in partitions)

    # -- the join kernel -------------------------------------------------
    @staticmethod
    def _hash_table(runs: List[List[Record]]) -> Dict[Any, Any]:
        """Key → build payload of the records of ``runs``, taken in order:
        the hash table of every join the operator runs (the resident
        partitions' frames, the §8.3 build batches, each §8.1 block).

        A key that occurs once maps to its payload itself; a key that
        repeats maps to a :class:`_Many` of its payloads in input order.
        """
        flat = chain.from_iterable
        table = dict(zip(map(_key, flat(runs)), map(_payload, flat(runs))))
        if len(table) < sum(map(len, runs)):
            # some key repeats: rebuild, gathering each repeat's payloads
            table = {}
            get = table.get
            for key, _size, payload in flat(runs):
                b = get(key, _MISS)
                if b is _MISS:
                    table[key] = payload
                elif type(b) is _Many:
                    b.append(payload)
                else:
                    table[key] = _Many((b, payload))
        return table

    @staticmethod
    def _probe_table(table: Dict[Any, Any], probe: List[Record],
                     swapped: bool) -> Iterator[Pair]:
        """The pairs of ``probe`` joined against ``table``, oriented for
        ``swapped``, made lazily as they are taken. Every probe of the
        operator goes through here."""
        get = table.get
        for key, _size, payload in probe:
            b = get(key, _MISS)
            if b is _MISS:
                continue
            if type(b) is _Many:
                yield from zip(repeat(payload), b) if swapped else zip(b, repeat(payload))
            elif swapped:
                yield payload, b
            else:
                yield b, payload

    # -- fallback operators ----------------------------------------------
    def _in_memory_join(self, build: Iterator[List[Record]],
                        probe: Iterator[List[Record]],
                        swapped: bool) -> Iterator[Iterator[Pair]]:
        """§8.3: skip partitioning, hash the whole build input directly
        (it is known to fit the memory budget)."""
        stats = self.stats
        stats.in_memory_rounds += 1
        batches = list(build)
        stats.records_processed += sum(map(len, batches))
        table = self._hash_table(batches)
        for batch in probe:
            stats.records_processed += len(batch)
            stats.hash_probes += len(batch)
            yield self._probe_table(table, batch, swapped)

    def _bnlj(self, build: Iterator[List[Record]], probe: Iterator[List[Record]],
              swapped: bool) -> Iterator[Iterator[Pair]]:
        """§8.1 bail-out: block-nested-loop equijoin.

        Loads the build side block-by-block (a block = the memory budget
        minus an input and an output frame) and scans the probe side once
        per block, one probe batch at a time. Key equality
        is evaluated with an in-block index — same output as a
        tuple-at-a-time NLJ for an equijoin, without the quadratic
        constant.
        """
        self.stats.bnlj_rounds += 1
        cfg = self.cfg
        block_bytes = max(cfg.frame_bytes, (cfg.memory_frames - 2) * cfg.frame_bytes)
        probe_batches: List[List[Record]] = list(probe)
        probe_records = sum(map(len, probe_batches))
        for block in _blocks(chain.from_iterable(build), block_bytes):
            self.stats.records_processed += len(block)
            self.stats.comparisons += probe_records
            table = self._hash_table([block])
            for batch in probe_batches:
                yield self._probe_table(table, batch, swapped)
