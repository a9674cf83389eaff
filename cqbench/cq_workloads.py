"""The five benchmark workloads.

Each workload builds its inputs from the seed, drives the program only
through its public entry points (``count_answers``, ``CountingSession``,
``MultiWriterSession``, ``ShardServer``), records one :class:`Sample` per
request, and checks every answer against an oracle computed after the
timed phase.  Why each workload exists is documented in ``README.md``
next to this file.
"""

from __future__ import annotations

import itertools
import math
import random
import socket
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    CountResult,
    Database,
    PlanCache,
    count_brute_force,
    parse_query,
)
from repro.counting import default_plan_cache
from repro.counting import engine
from repro.dynamic import Delete, Insert, apply_update
from repro.service import (
    AttachDatabase,
    CountingSession,
    CountRequest,
    MultiWriterSession,
    UpdateRequest,
)
from repro.service.net import ShardServer

from cq_inputs import (
    GRAPH_SHAPES,
    HEAVY_TRIANGLE,
    SESSION_SHAPES,
    Shape,
    UpdateSource,
    random_shape,
    regular_edges,
    relations_for,
)
from cq_speed import SpeedProbe


@dataclass
class Sample:
    """One request: its kind, latency, outcome, and what the oracle needs."""

    kind: str                 # "count" or "update"
    ms: float                 # wall time, issue -> answer
    at: float                 # its midpoint (perf_counter), for the speed
    ok: bool
    result: object = None     # a slimmed CountResult, or the raised error
    check: object = None      # workload-specific oracle key
    deadline_ms: Optional[float] = None
    phase: int = 0


#: A phase ends after at most this many times its length as measured,
#: however slow the host is.
MAX_STRETCH = 1.5


def cold_start() -> None:
    """Drop the process-wide memos: default plan cache, decomposition
    search memo, homomorphism space memo and linked executables."""
    from repro.counting import compile as compile_module

    engine.clear_engine_memo()
    compile_module._LINKED.clear()


#: The ``CountResult.details`` keys the checks and metrics read.
_KEPT_DETAILS = ("estimate", "epsilon", "delta", "samples", "hits",
                 "estimated_cost", "actual_seconds")


def _slim(result):
    """What a sample keeps of a request's answer: the count, strategy and
    the details the checks read (acknowledgements are not checked).  Held
    whole, answers would grow the process with every request served and
    ``peak_rss_mb`` would measure the benchmark's bookkeeping."""
    if not isinstance(result, CountResult):
        return None
    return CountResult(result.count, result.strategy,
                       {key: result.details[key] for key in _KEPT_DETAILS
                        if key in result.details})


def _update(op: str, relation: str, row) -> object:
    return Insert(relation, row) if op == "insert" else Delete(relation, row)


class Workload:
    """Set up once, run closed-loop phases, check, close."""

    name = ""
    #: Percentile reported as ``*_tail``: at least 10 samples lie beyond
    #: it at the full size (``run.tail_percentile`` falls back otherwise).
    tail_pct = 95.0
    SIZES: Dict[str, dict] = {}

    def __init__(self, seed: int, scale: str = "full", tracer=None,
                 probe: Optional[SpeedProbe] = None):
        self.seed = seed
        self.probe = probe if probe is not None else SpeedProbe()
        self.size = self.SIZES[scale]
        self.tracer = tracer
        self.samples: List[Sample] = []
        self.rel_errors: List[float] = []
        #: Completed requests per second of the last phase, at the
        #: reference host speed.
        self.rate = 0.0

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def next_request(self, rid: str
                     ) -> Tuple[str, object, object, Optional[float]]:
        """``(kind, call, check, deadline_ms)`` for the next request, whose
        id is *rid*; the inputs are built here, outside its timing."""
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    # -- introspection for the per-layer metrics -----------------------
    def plan_caches(self) -> List[PlanCache]:
        return []

    def layer_stats(self) -> dict:
        """Workload-level counters: maintainer builds, pairs, bytes..."""
        return {}

    # -- the closed loop -----------------------------------------------
    def round_open(self) -> bool:
        """Whether the phase must go on past its time to finish a round."""
        return False

    def rewind(self) -> None:
        """Between the untraced and the traced half of a traced run: make
        the second half comparable with the first."""

    def _request_span(self, kind: str, rid: str):
        tracer = self.tracer
        if tracer is not None and tracer.recording:
            return tracer.span(f"request.{kind}", rid)
        return nullcontext()

    def _issue(self, kind: str, call, check, deadline_ms, phase: int,
               rid: str) -> Sample:
        started = time.perf_counter()
        try:
            with self._request_span(kind, rid):
                result = call()
            ok = True
        except Exception as error:  # a failed request is counted, not fatal
            result, ok = error, False
        ended = time.perf_counter()
        if ok:
            result = _slim(result)
        return Sample(kind, (ended - started) * 1e3, (started + ended) / 2,
                      ok, result, check, deadline_ms, phase)

    def run_phase(self, seconds: float, phase: int = 0) -> None:
        """One caller: issue requests until *seconds* of request time at
        the reference host speed have passed, so that a run does about
        the same work however fast the host is, or :data:`MAX_STRETCH`
        times *seconds* as measured (building inputs and probing the host
        speed between requests is not timed)."""
        busy = raw = 0.0
        first = len(self.samples)
        while (busy < seconds and raw < MAX_STRETCH * seconds
               or self.round_open()):
            self.probe.tick()
            rid = f"{phase}:{len(self.samples)}"
            kind, call, check, deadline_ms = self.next_request(rid)
            sample = self._issue(kind, call, check, deadline_ms, phase, rid)
            self.samples.append(sample)
            raw += sample.ms / 1e3
            busy += sample.ms / 1e3 * self.probe.scale(sample.at)
        self.probe.tick(force=True)
        done = self.samples[first:]
        self.rate = len(done) / sum(self.scaled_ms(s) / 1e3 for s in done)

    def scaled_ms(self, sample: Sample) -> float:
        """*sample*'s time at the reference host speed (``cq_speed``)."""
        return sample.ms * self.probe.scale(sample.at)


# ----------------------------------------------------------------------
# plan-cold
# ----------------------------------------------------------------------
class PlanCold(Workload):
    """Every request is a first-seen random shape on a cold plan cache.

    Requests come in laps of the same ``lap`` random shapes (drawn from
    :data:`SHAPE_SEED`); the seed draws the relations and the variable
    renamings, fresh in every lap.  Each lap starts from cold memos and an
    emptied plan cache, so its shapes are first-seen again, and a run is
    whole laps, so every run plans the same shapes equally often however
    fast the host is.  About 1% of random shapes need the hybrid search
    and take 0.1-1.5 s each; drawing the shapes per seed made the rate
    swing by a fifth between seeds.  Inputs are regenerated, not kept: the
    oracle replays the same generator, so the benchmark's own memory does
    not grow with the number of requests.
    """

    name = "plan-cold"
    tail_pct = 95.0
    SHAPE_SEED = 20140622
    SIZES = {
        "full": dict(lap=256, variables=8, atoms=6, rows=24, domain=6),
        "smoke": dict(lap=8, variables=5, atoms=4, rows=8, domain=4),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache: Optional[PlanCache] = None
        self.pool: List[Tuple[str, dict]] = []
        self.inputs: Iterator[Tuple[str, dict]] = iter(())
        self.issued = 0

    def _inputs(self) -> Iterator[Tuple[str, dict]]:
        """``(rule text, relations)`` per request, in request order."""
        size = self.size
        rng = random.Random(self.seed)
        while True:
            shape_rng = random.Random(self.SHAPE_SEED)
            for _ in range(size["lap"]):
                shape = random_shape(shape_rng, size["variables"],
                                     size["atoms"])
                relations = relations_for(rng, shape, size["rows"],
                                          size["domain"])
                yield shape.render(rng), relations

    def setup(self) -> None:
        self.inputs = self._inputs()
        self.pool = list(itertools.islice(self.inputs, self.size["lap"]))
        self.cache = PlanCache()

    def rewind(self) -> None:
        # The traced half replays the untraced half's requests, cold:
        # fresh query and database objects, memos and plan cache.
        cold_start()
        self.cache = PlanCache()
        self.inputs = self._inputs()
        self.pool = []
        self.issued = 0

    def round_open(self) -> bool:
        return self.issued % self.size["lap"] != 0

    def next_request(self, rid):
        index = self.issued
        self.issued += 1
        if index and index % self.size["lap"] == 0:
            cold_start()
            self.cache.clear()
        text, relations = (self.pool[index] if index < len(self.pool)
                           else next(self.inputs))
        query, database = parse_query(text), Database.from_dict(relations)
        cache = self.cache

        def call():
            return engine.count_answers(query, database, plan_cache=cache)
        return "count", call, index, None

    def check(self) -> List[str]:
        problems = []
        for phase in sorted({s.phase for s in self.samples}):
            samples = [s for s in self.samples if s.phase == phase]
            for sample, (text, relations) in zip(samples, self._inputs()):
                if not sample.ok:
                    continue
                query = parse_query(text)
                expected = count_brute_force(
                    query, Database.from_dict(relations))
                if sample.result.count != expected:
                    problems.append(
                        f"plan-cold: {query} counted {sample.result.count}, "
                        f"brute force says {expected}")
        return problems

    def plan_caches(self):
        return [self.cache] if self.cache is not None else []


# ----------------------------------------------------------------------
# exec-warm and deadline-mix: fixed graph shapes, fresh renamings
# ----------------------------------------------------------------------
class _GraphWorkload(Workload):
    """Round-robin over fixed graph shapes; each request a fresh renaming.

    The shape order is fixed and the number of shapes odd, so the median
    and the tail fall inside one shape's latency band instead of on the
    boundary between two.  Round *r* runs on graph ``r % graphs``: with
    several graphs per run, how costly one random graph happens to be
    moves a run's figures less.
    """

    SHAPES: Sequence[Shape] = ()
    deadline_ms: Optional[float] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: shape name -> the graphs its rounds cycle through
        self.databases: Dict[str, List[Database]] = {}
        self.issued = 0
        self._oracle: Dict[Tuple[str, int, str], int] = {}

    def _graph_list(self, rng: random.Random, symbol: str, count: int,
                    nodes: int, degree: int) -> List[Database]:
        return [Database.from_dict({symbol: regular_edges(rng, nodes, degree)})
                for _ in range(count)]

    def _graphs(self, rng: random.Random) -> Dict[str, List[Database]]:
        size = self.size
        graphs = self._graph_list(rng, "e", size["graphs"], size["nodes"],
                                  size["degree"])
        return {shape.name: graphs for shape in self.SHAPES}

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.databases = self._graphs(self.rng)
        # First read per shape: plans are cached from here on.
        for shape in self.SHAPES:
            engine.count_answers(parse_query(shape.render(self.rng)),
                                 self.databases[shape.name][0],
                                 deadline_ms=self.deadline_ms)

    def round_open(self) -> bool:
        # Whole rounds only: every shape is requested equally often, and
        # the rate covers whole rounds of the shape order.
        return self.issued % len(self.SHAPES) != 0

    def next_request(self, rid):
        rounds, position = divmod(self.issued, len(self.SHAPES))
        shape = self.SHAPES[position]
        self.issued += 1
        graphs = self.databases[shape.name]
        index = rounds % len(graphs)
        query = parse_query(shape.render(self.rng))
        database = graphs[index]
        deadline_ms = self.deadline_ms

        def call():
            return engine.count_answers(query, database,
                                        deadline_ms=deadline_ms)
        return "count", call, (shape, index), deadline_ms

    def exact(self, shape: Shape, index: int, avoid: str) -> int:
        """The exact count by a forced strategy other than *avoid*."""
        method = "structural" if avoid != "structural" else "compiled"
        key = (shape.name, index, method)
        if key not in self._oracle:
            query = parse_query(shape.render(random.Random(0)))
            self._oracle[key] = engine.count_answers(
                query, self.databases[shape.name][index], method=method).count
        return self._oracle[key]

    def check(self) -> List[str]:
        problems = []
        approx = {}
        for sample in self.samples:
            if not sample.ok:
                continue
            (shape, index), result = sample.check, sample.result
            if result.strategy == "approx":
                expected = self.exact(shape, index, "approx")
                self.rel_errors.append(
                    abs(result.count - expected) / max(expected, 1))
                details = result.details
                approx[(shape.name, index, details["estimate"])] = (
                    abs(details["estimate"] - expected) > details["epsilon"],
                    details["delta"])
                continue
            expected = self.exact(shape, index, result.strategy)
            if sample.deadline_ms is not None:
                self.rel_errors.append(0.0)
            if result.count != expected:
                problems.append(
                    f"{self.name}: {shape.name} on graph {index} counted "
                    f"{result.count} by {result.strategy}, expected {expected}"
                )
        problems.extend(_approx_violations(self.name, list(approx.values())))
        return problems

    def plan_caches(self):
        return [default_plan_cache()]


def _approx_violations(name: str, outcomes: List[Tuple[bool, float]]
                       ) -> List[str]:
    """Distinct approximate answers outside their stated ``epsilon``:
    a problem when more of them miss than their ``delta`` allows at
    99.9% confidence (a binomial tail)."""
    if not outcomes:
        return []
    misses = sum(missed for missed, _ in outcomes)
    n = len(outcomes)
    delta = max(d for _, d in outcomes)
    allowed, tail = 0, 1.0
    while allowed < n:
        tail -= math.comb(n, allowed) * delta ** allowed * (1 - delta) ** (
            n - allowed)
        if tail < 1e-3:
            break
        allowed += 1
    if misses > allowed:
        return [f"{name}: {misses} of {n} distinct approximate answers lie "
                f"outside their stated epsilon (at most {allowed} allowed "
                f"at delta={delta})"]
    return []


class ExecWarm(_GraphWorkload):
    name = "exec-warm"
    tail_pct = 90.0
    SHAPES = tuple(GRAPH_SHAPES[name] for name in
                   ("star", "path2q", "triangle", "cycle4", "path3"))
    SIZES = {
        "full": dict(graphs=2, nodes=150, degree=7),
        "smoke": dict(graphs=2, nodes=20, degree=4),
    }


class DeadlineMix(_GraphWorkload):
    name = "deadline-mix"
    tail_pct = 90.0
    # Every shape but path2 could answer exactly within a few deadlines
    # yet degrades to approx; path2 keeps exact answers in the mix.  The
    # light triangle is left out: its approx answer takes 2-6 ms, right
    # at the deadline, so whether it meets it would be noise.
    deadline_ms = 5.0
    SHAPES = tuple(GRAPH_SHAPES[name] for name in
                   ("path2", "star", "path3", "cycle4")) + (HEAVY_TRIANGLE,)
    SIZES = {
        "full": dict(graphs=16, nodes=100, degree=5, heavy_graphs=2,
                     heavy_nodes=500, heavy_degree=25),
        "smoke": dict(graphs=2, nodes=20, degree=4, heavy_graphs=1,
                      heavy_nodes=30, heavy_degree=6),
    }

    def _graphs(self, rng):
        size = self.size
        graphs = super()._graphs(rng)
        graphs[HEAVY_TRIANGLE.name] = self._graph_list(
            rng, "h", size["heavy_graphs"], size["heavy_nodes"],
            size["heavy_degree"])
        return graphs

    def exact(self, shape, index, avoid):
        # The heavy triangle answers approximately; its oracle is the
        # compiled tier (the interpreted one takes many seconds there).
        if shape is HEAVY_TRIANGLE:
            avoid = "structural"
        return super().exact(shape, index, avoid)


# ----------------------------------------------------------------------
# Session streams: updates beside renamed maintained counts
# ----------------------------------------------------------------------
class _StreamWorkload(Workload):
    """Named databases, each with one maintainable shape; per database a
    burst of 3-6 single-tuple updates, then one renamed count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.names: List[str] = []
        self.pending: List[Tuple[str, tuple]] = []
        self.turn = 0

    def _build_inputs(self, rng: random.Random, names: Sequence[str]):
        size = self.size
        self.shapes: Dict[str, Shape] = {}
        self.sources: Dict[str, UpdateSource] = {}
        self.initial: Dict[str, Database] = {}
        for index, name in enumerate(names):
            shape = SESSION_SHAPES[index % len(SESSION_SHAPES)]
            relations = relations_for(rng, shape, size["rows"], size["domain"])
            self.shapes[name] = shape
            self.sources[name] = UpdateSource(relations, size["domain"])
            self.initial[name] = Database.from_dict(relations)

    def _next_op(self) -> Tuple[str, tuple]:
        """``(database, op)`` of the next request: bursts go round the
        databases in :attr:`names` order; a burst's ops are
        ``("update", op, rel, row)``... then ``("count",)``."""
        if not self.pending:
            name = self.names[self.turn % len(self.names)]
            self.turn += 1
            ops = [("update",) + self.sources[name].next(self.rng)
                   for _ in range(self.rng.randrange(3, 7))]
            ops.append(("count",))
            self.pending = [(name, op) for op in ops]
        return self.pending.pop(0)

    def layer_stats(self) -> dict:
        built = resident = 0
        for snapshot in self._maintainer_snapshots():
            built += snapshot["built"]
            resident += snapshot["resident_bytes"]
        return {"builds": built, "pairs": len(self.shapes),
                "resident_bytes": resident}


class SessionMaintained(_StreamWorkload):
    """One caller, one session, seven databases over the six shapes.

    Counts take a different time on each database, so their latencies
    fall in one band per database: with an odd number of databases the
    median lies inside a band (the two ``qpath`` databases) instead of on
    the edge between two.
    """

    name = "session-maintained"
    tail_pct = 95.0
    SIZES = {
        "full": dict(databases=7, rows=2000, domain=250),
        "smoke": dict(databases=2, rows=30, domain=8),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.session: Optional[CountingSession] = None
        self.counts_issued = 0
        #: ``(sample index, database version)`` for the sampled recounts.
        self.kept: List[Tuple[int, Database]] = []

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.names = [f"db{i}" for i in range(self.size["databases"])]
        self._build_inputs(self.rng, self.names)
        self.session = CountingSession(workers=0,
                                       maintainer_budget_bytes=None)
        for name in self.names:
            self.session.attach_database(name, self.initial[name])
        for name in self.names:  # first read per shape builds the DP
            self.session.count(CountRequest(
                parse_query(self.shapes[name].render(self.rng)), name))

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def next_request(self, rid):
        name, op = self._next_op()
        session = self.session
        if op[0] == "update":
            update = _update(*op[1:])
            return ("update", lambda: session.update(name, update),
                    name, None)
        request = CountRequest(parse_query(self.shapes[name].render(self.rng)),
                               name)
        # Keep a few database versions for sampled recounts (keeping
        # all of them would hold a copy of every touched relation).
        if self.counts_issued % 32 == 0 and len(self.kept) < 16:
            self.kept.append((len(self.samples), session.database(name)))
        self.counts_issued += 1
        return "count", lambda: session.count(request), name, None

    def check(self) -> List[str]:
        problems = []
        for index, version in self.kept:
            sample = self.samples[index] if index < len(self.samples) else None
            if sample is None or not sample.ok:
                continue
            shape = self.shapes[sample.check]
            expected = engine.count_answers(
                parse_query(shape.render(random.Random(0))), version).count
            if sample.result.count != expected:
                problems.append(
                    f"session-maintained: {sample.check} read "
                    f"{sample.result.count}, engine recount {expected}")
        # Every maintained DP, read once more, against an engine recount
        # of the final version of its database.
        for name in self.names:
            query = parse_query(self.shapes[name].render(random.Random(1)))
            maintained = self.session.count(CountRequest(query, name)).count
            expected = engine.count_answers(query,
                                            self.session.database(name)).count
            if maintained != expected:
                problems.append(
                    f"session-maintained: final {name} read {maintained}, "
                    f"engine recount {expected}")
        return problems

    def plan_caches(self):
        return [self.session.plan_cache] if self.session is not None else []

    def _maintainer_snapshots(self):
        return [self.session.stats()["maintainers"]]


class FabricTcp(_StreamWorkload):
    """One caller over two shards of one in-process TCP shard server."""

    name = "fabric-tcp"
    # Not 99: the slowest of these millisecond requests wait on thread
    # wake-ups across the caller, connection and shard threads, and on a
    # busy host those stretch far more than the reference task does.
    tail_pct = 90.0
    shards = 2
    SIZES = {
        "full": dict(databases=6, rows=200, domain=40),
        "smoke": dict(databases=2, rows=20, domain=6),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server: Optional[ShardServer] = None
        self.session: Optional[MultiWriterSession] = None
        self.address: Optional[str] = None

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.server = ShardServer(host="127.0.0.1", port=0, shards=0)
        self.address = self.server.address
        self.session = MultiWriterSession(
            shards=self.shards, shard_mode="tcp",
            shard_addrs=[self.server.address],
            maintainer_budget_bytes=None, max_pending=None)
        # Names spread evenly over the shards, and bursts alternate
        # between them.
        per_shard = self.size["databases"] // self.shards
        owned: List[List[str]] = [[] for _ in range(self.shards)]
        candidate = 0
        while any(len(names) < per_shard for names in owned):
            name = f"db{candidate}"
            candidate += 1
            owner = owned[self.session.shard_of(name)]
            if len(owner) < per_shard:
                owner.append(name)
        self.names = [name for group in zip(*owned) for name in group]
        self._build_inputs(self.rng, self.names)
        for name in self.names:
            self.session.submit(AttachDatabase(name, self.initial[name])
                                ).result()
        for name in self.names:
            self.session.submit(CountRequest(
                parse_query(self.shapes[name].render(self.rng)), name)
            ).result()

    def close(self) -> None:
        try:
            if self.session is not None:
                self.session.close()
                self.session = None
        finally:
            if self.server is not None:
                self.server.close()
                self.server = None
                _release_listener(self.address)

    def next_request(self, rid):
        name, op = self._next_op()
        if op[0] == "update":
            job = UpdateRequest(name, _update(*op[1:]), label=rid)
            check = (name,) + op[1:]
        else:
            job = CountRequest(parse_query(self.shapes[name].render(self.rng)),
                               name, label=rid)
            check = (name,)
        session = self.session
        return op[0], lambda: session.submit(job).result(), check, None

    def check(self) -> List[str]:
        """Replay every database's ops in order on a local copy and
        recount each count there."""
        problems = []
        local = dict(self.initial)
        oracle_queries = {name: parse_query(
            self.shapes[name].render(random.Random(0))) for name in self.names}
        for sample in self.samples:
            name = sample.check[0]
            if sample.kind == "update":
                if not sample.ok:
                    problems.append(f"fabric-tcp: update failed on {name}: "
                                    f"{sample.result!r}")
                    continue
                local[name] = apply_update(local[name],
                                           _update(*sample.check[1:]))
            elif sample.ok:
                expected = engine.count_answers(oracle_queries[name],
                                                local[name]).count
                if sample.result.count != expected:
                    problems.append(
                        f"fabric-tcp: {name} read {sample.result.count}, "
                        f"replayed engine count {expected}")
        return problems

    def plan_caches(self):
        return [self.server.plan_cache] if self.server is not None else []

    def _maintainer_snapshots(self):
        return [shard["maintainers"]
                for shard in self.session.stats()["per_shard"]]


def _release_listener(address: str) -> None:
    """Make sure a closed server no longer listens on *address*.

    ``ShardServer.close()`` closes its listening socket while the accept
    thread is still blocked in ``accept()``, and that call keeps the
    socket listening.  A connection wakes the thread, which then sees the
    server is closed and returns; connect until the port refuses.
    """
    host, port = address.rsplit(":", 1)
    for _ in range(200):
        try:
            socket.create_connection((host, int(port)), timeout=1).close()
        except OSError:
            return
        time.sleep(0.005)
    raise RuntimeError(f"closed shard server still listens on {address}")


WORKLOADS = {cls.name: cls for cls in
             (PlanCold, ExecWarm, SessionMaintained, FabricTcp, DeadlineMix)}
