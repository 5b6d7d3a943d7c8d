"""Single-pass multi-configuration two-level hierarchy simulation.

FIFO and random calibration grids in :mod:`repro.archsim.missmodel` (and
the profile store's dense surfaces) need the full
:class:`~repro.archsim.hierarchy.HierarchyResult` of many (L1 size,
L2 size) combinations over the *same* multi-million-access trace.
Running :class:`~repro.archsim.hierarchy.ArrayTwoLevelHierarchy` once
per combination repeats nearly all of the work: every pass re-decodes
the same addresses, re-derives block/set indices, and — for the L2-curve
points, which all sit behind the same reference L1 — re-simulates an
identical L1 from scratch.  (LRU grids take the per-set Mattson
profiler, :mod:`repro.archsim.setdist`, instead; this engine rejects
``policy="lru"``.)

:class:`MultiConfigHierarchyEngine` simulates *all* configurations
concurrently in one sweep over each trace chunk, producing statistics
**bit-identical** to independent per-point runs (the property suites in
``tests/archsim/test_multiconfig.py`` and
``tests/archsim/test_multiconfig_policies.py`` lock this in).  Three
layers of sharing make it fast:

* **One decode.**  Points are grouped into *lanes* by their L1 shape;
  lanes sharing a block size share one vectorized block/set-index
  computation per chunk.  Nested power-of-two set counts need no extra
  arrays at all — a coarser set index is a bit-prefix of a finer one, so
  every lane masks the same shifted-block list with its own
  ``n_sets - 1``.
* **Per-set run compression.**  An access whose set's previous access
  touched the same block is a guaranteed hit: nothing else reached that
  set in between, and hits never touch FIFO or random replacement state
  or draw a victim.  Each chunk is stable-sorted by set index with
  numpy, every in-set repeat is dropped, and the run heads go back to
  trace order carrying their run's ORed write flag (which drives the
  dirty bit, so write-back accounting stays exact).  A group compresses
  at its *coarsest* set count: by set refinement an in-set repeat there
  is one at every finer set count, so one shared event stream is exact
  for every cache in the fused loop.  Chunks compress independently —
  keeping a set's first event in each chunk is always exact.  On
  300 k-access synthetic traces (32 B blocks) 64-set compression keeps
  22 k events where dropping only the trace's consecutive repeats keeps
  137 k (spec2000; tpcc 40 k of 148 k): a few hot sets take most of the
  traffic.
* **One L1 per lane, replayed L2s.**  Each lane advances its L1 state
  once per event and records the resulting L2 traffic (dirty-victim
  write-back followed by the demand fill, in simulation order).  Every
  point sharing the lane replays that recorded stream into its own L2 —
  the reference L1 in front of the whole L2 size grid is simulated
  once, not once per size.  Identical (L1, L2) points collapse to a
  single simulation entirely.

The per-chunk inner loops are generated (``compile``/``exec``) from the
lane layout at construction time: one fused loop advances every lane's
set state with straight-line, local-variable-only code.  2-way and
direct-mapped levels use an exact two-slot/one-slot fill-order encoding
(plain Python lists indexed by set); other associativities use
insertion-ordered dicts, whose first key is the oldest fill.  FIFO
evicts the oldest fill.  Random evicts the candidate a per-cache
seeded :class:`random.Random` stream picks — L1 on ``seed``, every
follower L2 on ``seed + 1``, the exact streams
:class:`~repro.archsim.hierarchy.ArrayTwoLevelHierarchy` uses per
point — so each point's statistics stay bit-identical no matter how
points are grouped into lanes.  Every draw is ``choice`` over a full
set's ``assoc`` candidates, so each cache's draws are one index
sequence fixed by its seed: the engine pre-draws them in bulk per chunk
(:func:`_predraw`) and the kernels only index the candidates with the
next one.  A direct-mapped set has one candidate, so direct-mapped
random runs the FIFO kernel and draws nothing.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.archsim.hierarchy import HierarchyResult
from repro.archsim.setassoc import _validate_shape
from repro.archsim.stats import CacheStats
from repro.archsim.trace import DEFAULT_CHUNK, TraceLike, as_buffer
from repro.cache.config import CacheConfig

#: (size_bytes, block_bytes, associativity) — the identity of one level.
_Shape = Tuple[int, int, int]

#: Sentinel distinguishing "absent" from any dirty-bit value in the
#: ordered-dict sets (lets the hit path run on one hash probe).
_MISSING = object()

#: Replacement policies with generated kernels.
_POLICIES = ("fifo", "random")


def _shape(config: CacheConfig) -> _Shape:
    return (config.size_bytes, config.block_bytes, config.associativity)


# --------------------------------------------------------------------------
# code generation: one fused loop per cache group
# --------------------------------------------------------------------------
#
# A "group" is a list of cache states driven by the same compressed event
# stream (all L1 lanes sharing a block size; all L2 followers of one lane
# sharing a block size).  The generated function unrolls the per-cache
# logic so each event advances every cache with local-variable code only.
#
# Loop variables: b = block address, sb = block address >> block shift
# (set index before masking), x = is_write of the run's first access
# (miss classification), aw = OR of every write flag in the run (dirty
# bit), a = raw address of the run's first access (L2 demand traffic).

_SLOT2_STATE = (
    "    u{i}=g[{i}]['newer']; v{i}=g[{i}]['older']; "
    "d{i}=g[{i}]['dirty_newer']; e{i}=g[{i}]['dirty_older']; "
    "k{i}=g[{i}]['mask']\n"
)
_SLOT1_STATE = (
    "    u{i}=g[{i}]['newer']; d{i}=g[{i}]['dirty_newer']; "
    "k{i}=g[{i}]['mask']\n"
)
_DICT_STATE = (
    "    S{i}=g[{i}]['sets']; k{i}=g[{i}]['mask']; A{i}=g[{i}]['assoc']\n"
)
# Random additionally binds the cache's pre-drawn victim indices and
# the position of the next one.
_DRAWS = "    D{i}=g[{i}]['draws']; j{i}=0\n"
_PROLOGUE = {
    "fslot2": _SLOT2_STATE,
    "slot1": _SLOT1_STATE,
    "fdict": _DICT_STATE,
    "rslot2": _SLOT2_STATE + _DRAWS,
    "rdict": _DICT_STATE + _DRAWS,
}

_COUNTERS = "    h{i}=0; mi{i}=0; rm{i}=0; wm{i}=0; ev{i}=0; wb{i}=0; mem{i}=0\n"

_EVENTS = (
    "    oaap{i}=g[{i}]['ops_addr'].append; "
    "owap{i}=g[{i}]['ops_write'].append\n"
)

# Direct-mapped (FIFO and random): one slot per set, so the victim is
# forced.
_SLOT1 = """\
        s = sb & k{i}
        m = u{i}[s]
        if b == m:
            h{i} += 1
            if aw:
                d{i}[s] = True
        else:
            mi{i} += 1
            if x:
                wm{i} += 1
            else:
                rm{i} += 1
            t = d{i}[s]
            u{i}[s] = b; d{i}[s] = aw
            if m != -1:
                ev{i} += 1
                if t:
                    wb{i} += 1
{dirty_victim}{miss}"""

# FIFO two-slot: u{i} holds the newer fill, v{i} the older.  Hits never
# promote (the only change a hit may make is setting the dirty bit); the
# victim is always the older fill, and a miss shifts new -> old.
_FSLOT2 = """\
        s = sb & k{i}
        m = u{i}[s]
        if b == m:
            h{i} += 1
            if aw:
                d{i}[s] = True
        elif b == v{i}[s]:
            h{i} += 1
            if aw:
                e{i}[s] = True
        else:
            mi{i} += 1
            if x:
                wm{i} += 1
            else:
                rm{i} += 1
            victim = v{i}[s]
            u{i}[s] = b; v{i}[s] = m
            t = e{i}[s]; e{i}[s] = d{i}[s]; d{i}[s] = aw
            if victim != -1:
                ev{i} += 1
                if t:
                    wb{i} += 1
{dirty_victim}{miss}"""

# Random two-slot: same fill-order slots as FIFO, but a full set's
# victim is the next pre-drawn index into the candidates (older, newer)
# — exactly ``list(resident)`` in the array engine.  An unfilled set
# evicts nothing and draws nothing, like the array engine.
_RSLOT2 = """\
        s = sb & k{i}
        m = u{i}[s]
        if b == m:
            h{i} += 1
            if aw:
                d{i}[s] = True
        elif b == v{i}[s]:
            h{i} += 1
            if aw:
                e{i}[s] = True
        else:
            mi{i} += 1
            if x:
                wm{i} += 1
            else:
                rm{i} += 1
            victim = v{i}[s]
            if victim == -1:
                u{i}[s] = b; v{i}[s] = m
                e{i}[s] = d{i}[s]; d{i}[s] = aw
            else:
                ev{i} += 1
                if D{i}[j{i}]:
                    victim = m
                    t = d{i}[s]
                    u{i}[s] = b; d{i}[s] = aw
                else:
                    t = e{i}[s]
                    u{i}[s] = b; v{i}[s] = m
                    e{i}[s] = d{i}[s]; d{i}[s] = aw
                j{i} += 1
                if t:
                    wb{i} += 1
{dirty_victim}{miss}"""

# FIFO dict: no pop-and-reinsert on hit, so insertion order *is* fill
# order and the victim is the first key.
_FDICT = """\
        r = S{i}[sb & k{i}]
        t = r.get(b, MS)
        if t is not MS:
            h{i} += 1
            if aw:
                r[b] = True
        else:
            mi{i} += 1
            if x:
                wm{i} += 1
            else:
                rm{i} += 1
            if len(r) >= A{i}:
                victim = next(iter(r))
                if r.pop(victim):
                    wb{i} += 1
{dirty_victim}                ev{i} += 1
{miss}            r[b] = aw
"""

# Random dict: fill-order residency; a full set's victim is the next
# pre-drawn index into ``list(r)``, the array engine's candidate order.
_RDICT = """\
        r = S{i}[sb & k{i}]
        t = r.get(b, MS)
        if t is not MS:
            h{i} += 1
            if aw:
                r[b] = True
        else:
            mi{i} += 1
            if x:
                wm{i} += 1
            else:
                rm{i} += 1
            if len(r) >= A{i}:
                victim = list(r)[D{i}[j{i}]]
                j{i} += 1
                if r.pop(victim):
                    wb{i} += 1
{dirty_victim}                ev{i} += 1
{miss}            r[b] = aw
"""

_EPILOGUE = """\
    st = g[{i}]['stats']
    st.accesses += h{i} + mi{i}
    st.hits += h{i}
    st.misses += mi{i}
    st.read_misses += rm{i}
    st.write_misses += wm{i}
    st.evictions += ev{i}
    st.writebacks += wb{i}
    g[{i}]['memory'] += mem{i}
"""
# Random keeps the unused pre-drawn indices for the next chunk.
_DRAWS_EPILOGUE = "    g[{i}]['draws'] = D{i}[j{i}:]\n"


_TEMPLATES = {
    "slot1": _SLOT1,
    "fslot2": _FSLOT2,
    "rslot2": _RSLOT2,
    "fdict": _FDICT,
    "rdict": _RDICT,
}

#: Kinds that pre-draw victim indices.
_DRAWING = ("rslot2", "rdict")


def _cache_section(i: int, kind: str, events: bool, memory: bool) -> str:
    """One cache's per-event code block inside the fused loop."""
    indent = " " * 20
    # The one-slot kind holds its victim in `m`; the rest bind `victim`.
    victim_name = "m" if kind == "slot1" else "victim"
    dirty_victim = ""
    if events:
        dirty_victim += f"{indent}oaap{i}({victim_name})\n"
        dirty_victim += f"{indent}owap{i}(True)\n"
    if memory:
        dirty_victim += f"{indent}mem{i} += 1\n"
    miss_indent = " " * 12
    miss = ""
    if memory:
        miss += f"{miss_indent}mem{i} += 1\n"
    if events:
        miss += f"{miss_indent}oaap{i}(a)\n"
        miss += f"{miss_indent}owap{i}(False)\n"
    return _TEMPLATES[kind].format(i=i, dirty_victim=dirty_victim, miss=miss)


def _build_group_runner(
    kinds: Sequence[str], events: Sequence[bool], memory: bool
):
    """Compile the fused chunk loop for one cache group.

    ``kinds[i]`` selects the state encoding of cache ``i``; ``events[i]``
    toggles L2-traffic recording for that cache (L1 lanes with at least
    one follower) and ``memory`` toggles main-memory counting for the
    whole group (L2 followers).
    """
    any_events = any(events)
    lines: List[str] = ["def _run(bl, sbl, xl, awl, al, g):\n"]
    for i, kind in enumerate(kinds):
        lines.append(_PROLOGUE[kind].format(i=i))
        lines.append(_COUNTERS.format(i=i))
        if events[i]:
            lines.append(_EVENTS.format(i=i))
    if any_events:
        lines.append("    for b, sb, x, aw, a in zip(bl, sbl, xl, awl, al):\n")
    else:
        lines.append("    for b, sb, x, aw in zip(bl, sbl, xl, awl):\n")
    for i, kind in enumerate(kinds):
        lines.append(_cache_section(i, kind, events[i], memory))
    for i, kind in enumerate(kinds):
        lines.append(_EPILOGUE.format(i=i))
        if kind in _DRAWING:
            lines.append(_DRAWS_EPILOGUE.format(i=i))
    source = "".join(lines)
    namespace: Dict[str, object] = {"MS": _MISSING}
    exec(compile(source, "<multiconfig-group>", "exec"), namespace)
    runner = namespace["_run"]
    runner._source = source  # introspection hook for tests
    return runner


def _compress(blocks: np.ndarray, sets: np.ndarray, writes: np.ndarray):
    """Drop every access whose set's previous access hit the same block.

    ``sets`` holds each access's set index at the group's coarsest set
    count.  Returns ``(kept_indices, run_any_write, skipped)``: the
    in-set run heads in trace order, each run's ORed write flag, and
    the number of dropped accesses — each a guaranteed hit whose only
    architectural effect (the dirty bit) its run head carries.
    """
    n = blocks.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), 0
    order = np.argsort(sets, kind="stable")
    in_set = blocks[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    # Equal neighbours in set order share a set, so a block compare
    # alone finds the in-set repeats.
    np.not_equal(in_set[1:], in_set[:-1], out=head[1:])
    starts = np.nonzero(head)[0]
    run_write = np.logical_or.reduceat(writes[order], starts)
    heads = order[starts]
    keep = np.zeros(n, dtype=bool)
    keep[heads] = True
    any_write = np.zeros(n, dtype=bool)
    any_write[heads] = run_write
    kept = np.nonzero(keep)[0]
    return kept, any_write[kept], int(n - kept.size)


def _predraw(state: dict, need: int) -> None:
    """Top a random cache's pre-drawn victim indices up to ``need``.

    Each index is the pick of the cache's next
    ``random.Random(seed).choice`` over its ``assoc`` candidates.
    CPython's ``choice`` takes ``_randbelow(assoc)``: one 32-bit word
    per try, shifted down to ``assoc.bit_length()`` bits and retried
    while ``>= assoc``; ``getrandbits(32 * n)`` returns ``n`` successive
    words, least significant first.  So one bulk call and a numpy
    filter give the same sequence, and the rng keeps its place for the
    next top-up.
    """
    left = np.asarray(state["draws"])
    short = need - left.size
    if short <= 0:
        return
    assoc = state["assoc"]
    shift = 32 - assoc.bit_length()
    getrandbits = state["rng"].getrandbits
    parts = [left]
    while short > 0:
        # Power-of-two assoc accepts half the tries on average.
        words = 2 * short + 64
        tries = np.frombuffer(
            getrandbits(32 * words).to_bytes(4 * words, "little"),
            dtype="<u4",
        ) >> shift
        drawn = tries[tries < assoc].astype(left.dtype)
        parts.append(drawn)
        short -= drawn.size
    state["draws"] = memoryview(np.concatenate(parts))


#: State encoding per (associativity class, policy).
_KINDS = {
    2: {"fifo": "fslot2", "random": "rslot2"},
    1: {"fifo": "slot1", "random": "slot1"},
    None: {"fifo": "fdict", "random": "rdict"},
}


def _state_for(
    shape: _Shape, name: str, events: bool, policy: str, seed: int
) -> dict:
    """Allocate the per-set state for one cache of the given shape.

    A drawing cache owns its rng stream, created here from ``seed`` —
    per cache, not per lane group or shard, so victim draws depend only
    on the cache's own miss sequence and results are stable under any
    point grouping.  Its pre-drawn indices take one byte each up to
    256-way sets.
    """
    size_bytes, block_bytes, associativity = shape
    n_sets = _validate_shape(size_bytes, block_bytes, associativity, name)
    kind = _KINDS.get(associativity, _KINDS[None])[policy]
    state: dict = {
        "kind": kind,
        "mask": n_sets - 1,
        "assoc": associativity,
        "block_bytes": block_bytes,
        "stats": CacheStats(),
        "memory": 0,
    }
    if kind in ("fslot2", "rslot2"):
        state["newer"] = [-1] * n_sets
        state["older"] = [-1] * n_sets
        state["dirty_newer"] = [False] * n_sets
        state["dirty_older"] = [False] * n_sets
    elif kind == "slot1":
        state["newer"] = [-1] * n_sets
        state["dirty_newer"] = [False] * n_sets
    else:
        state["sets"] = [dict() for _ in range(n_sets)]
    if kind in _DRAWING:
        state["rng"] = random.Random(seed)
        state["draws"] = memoryview(
            np.empty(0, dtype=np.min_scalar_type(associativity - 1))
        )
    if events:
        state["ops_addr"] = []
        state["ops_write"] = []
    return state


class _Group:
    """Caches of one block size fed one compressed event stream."""

    __slots__ = ("block_bytes", "shift", "coarse", "set_dtype", "states",
                 "drawing", "runner", "events")

    def __init__(self, block_bytes: int, states: List[dict],
                 events: Sequence[bool], memory: bool) -> None:
        self.block_bytes = block_bytes
        self.shift = block_bytes.bit_length() - 1
        # Mask of the coarsest set count.  Its set indices fit the
        # smallest unsigned dtype, which keeps numpy's stable argsort a
        # radix sort.
        self.coarse = min(state["mask"] for state in states)
        self.set_dtype = np.min_scalar_type(self.coarse)
        self.states = states
        self.drawing = [state for state in states
                        if state["kind"] in _DRAWING]
        self.runner = _build_group_runner(
            [state["kind"] for state in states], events, memory
        )
        self.events = any(events)

    def feed(self, addresses: np.ndarray, is_write: np.ndarray) -> None:
        """Advance every cache of the group through one chunk."""
        blocks = addresses & -self.block_bytes
        shifted = blocks >> self.shift
        kept, any_write, skipped = _compress(
            blocks, (shifted & self.coarse).astype(self.set_dtype),
            is_write,
        )
        for state in self.drawing:
            _predraw(state, kept.size)
        self.runner(
            blocks[kept].tolist(),
            shifted[kept].tolist(),
            is_write[kept].tolist(),
            any_write.tolist(),
            addresses[kept].tolist() if self.events else (),
            self.states,
        )
        if skipped:
            for state in self.states:
                stats = state["stats"]
                stats.accesses += skipped
                stats.hits += skipped


def _group_by_block(states: Sequence[dict]) -> List[Tuple[int, List[dict]]]:
    """Partition cache states by block size (one decode per partition)."""
    by_block: Dict[int, List[dict]] = {}
    for state in states:
        by_block.setdefault(state["block_bytes"], []).append(state)
    return sorted(by_block.items())


class _Lane:
    """One distinct L1 shape plus every L2 that sits behind it."""

    __slots__ = ("shape", "state", "followers", "follower_groups",
                 "policy", "seed")

    def __init__(self, shape: _Shape, policy: str, seed: int) -> None:
        self.shape = shape
        self.policy = policy
        self.seed = seed
        self.state = _state_for(shape, "L1", events=True,
                                policy=policy, seed=seed)
        self.followers: Dict[_Shape, dict] = {}
        self.follower_groups: List[_Group] = []

    def follower(self, shape: _Shape) -> dict:
        state = self.followers.get(shape)
        if state is None:
            # Each follower gets its own seed+1 stream — the stream an
            # independent ArrayTwoLevelHierarchy would hand this L2.
            state = _state_for(shape, "L2", events=False,
                               policy=self.policy, seed=self.seed + 1)
            self.followers[shape] = state
        return state

    def compile_runners(self) -> None:
        """Group followers by block size and build each fused loop."""
        self.follower_groups = [
            _Group(block_bytes, states, [False] * len(states), memory=True)
            for block_bytes, states in _group_by_block(
                list(self.followers.values())
            )
        ]


class MultiConfigHierarchyEngine:
    """Simulate many (L1, L2) configurations in one pass over a trace.

    Parameters
    ----------
    points:
        Sequence of ``(l1_config, l2_config)`` pairs.  Duplicate pairs
        (and shared L1 shapes) are simulated once and fanned back out.
        ``l2_config`` may be ``None`` for callers that only need the L1
        statistics of that point (the grid calibration's L1 curve):
        the lane then records no L2 traffic at all, and the point's
        result carries an all-zero L2 ``CacheStats`` and
        ``memory_accesses == 0``.  The L1 statistics are unaffected —
        the L2 is strictly downstream of the L1 in this hierarchy.
    policy:
        ``"fifo"`` or ``"random"``, with the semantics of
        :class:`~repro.archsim.hierarchy.ArrayTwoLevelHierarchy`.  LRU
        is rejected: LRU grids are measured exactly by the per-set
        Mattson profiler (:mod:`repro.archsim.setdist`).
    seed:
        Random-policy seed: every lane L1 draws from
        ``random.Random(seed)`` and every follower L2 from
        ``random.Random(seed + 1)``, matching the per-point array
        engine streams regardless of lane grouping.

    :meth:`run` returns one :class:`HierarchyResult` per input point, in
    input order, each bit-identical to an independent
    ``ArrayTwoLevelHierarchy(l1, l2, policy, seed).run(trace)`` (L1-only
    points match on the L1 statistics).
    """

    def __init__(
        self,
        points: Sequence[Tuple[CacheConfig, Optional[CacheConfig]]],
        policy: str,
        seed: int = 0,
    ) -> None:
        if policy not in _POLICIES:
            raise SimulationError(
                f"MultiConfigHierarchyEngine: replacement policy "
                f"{policy!r} is not simulated here; expected 'fifo' or "
                f"'random' (LRU grids go through repro.archsim.setdist)"
            )
        self.policy = policy
        self.seed = seed
        points = list(points)
        if not points:
            raise SimulationError(
                "MultiConfigHierarchyEngine needs at least one "
                "(l1_config, l2_config) point"
            )
        self._lanes: Dict[_Shape, _Lane] = {}
        self._point_map: List[Tuple[_Lane, dict]] = []
        for l1_config, l2_config in points:
            lane_shape = _shape(l1_config)
            lane = self._lanes.get(lane_shape)
            if lane is None:
                lane = _Lane(lane_shape, policy, seed)
                self._lanes[lane_shape] = lane
            follower = (
                lane.follower(_shape(l2_config))
                if l2_config is not None else None
            )
            self._point_map.append((lane, follower))

        # L1 lanes grouped by block size: shared decode + one fused
        # loop.  Only lanes with followers record their L2 traffic.
        has_followers = {id(lane.state): bool(lane.followers)
                         for lane in self._lanes.values()}
        self._lane_groups = [
            _Group(block_bytes, states,
                   [has_followers[id(state)] for state in states],
                   memory=False)
            for block_bytes, states in _group_by_block(
                [lane.state for lane in self._lanes.values()]
            )
        ]
        for lane in self._lanes.values():
            lane.compile_runners()

    # -- introspection ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._point_map)

    @property
    def n_lanes(self) -> int:
        """Distinct L1 shapes actually simulated."""
        return len(self._lanes)

    @property
    def n_followers(self) -> int:
        """Distinct (L1, L2) simulations actually advanced."""
        return sum(len(lane.followers) for lane in self._lanes.values())

    # -- main entry ------------------------------------------------------

    def access_chunk(
        self, addresses: np.ndarray, is_write: np.ndarray
    ) -> None:
        """Advance every configuration through one chunk of accesses."""
        for group in self._lane_groups:
            group.feed(addresses, is_write)
        # Replay each lane's recorded L2 traffic into its followers.
        for lane in self._lanes.values():
            ops_addr = lane.state["ops_addr"]
            if not ops_addr:
                continue
            ops_write = lane.state["ops_write"]
            addr_array = np.array(ops_addr, dtype=np.int64)
            write_array = np.array(ops_write, dtype=bool)
            ops_addr.clear()
            ops_write.clear()
            for group in lane.follower_groups:
                group.feed(addr_array, write_array)

    def run(
        self, trace: TraceLike, chunk_size: int = DEFAULT_CHUNK
    ) -> List[HierarchyResult]:
        """Simulate a whole trace; one result per point, in input order."""
        for chunk in as_buffer(trace).iter_chunks(chunk_size):
            self.access_chunk(chunk.addresses, np.asarray(chunk.is_write))
        return self.results()

    def results(self) -> List[HierarchyResult]:
        """Snapshot statistics collected so far (points share nothing)."""
        return [
            HierarchyResult(
                l1=replace(lane.state["stats"]),
                l2=(replace(follower["stats"]) if follower is not None
                    else CacheStats()),
                memory_accesses=(follower["memory"]
                                 if follower is not None else 0),
            )
            for lane, follower in self._point_map
        ]
