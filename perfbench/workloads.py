"""The benchmark's three workloads.

Each workload owns its seeded inputs and runs *sessions*.  A session
sets the program up, runs a fixed, seed-determined schedule of
operations on it, reads the process's peak memory, sets the program up
again as often as asked (only to time set-up: a process that has built
and freed the program several times holds memory differently), and
checks every answer against the ``cpu_scan`` referee off the clock.  The
schedule's length comes from the run's time budget and the workload's
nominal rate (:meth:`Workload.schedule`): every run of one budget does
the same work, so run-to-run spread is timing noise, not a different
mix of operations.

* ``sweep_dense`` — the paper's Fig. 6 analytics use: one caller sweeps
  all nine ``d`` values over a fresh query set on three engines.
* ``serve_http`` — interactive tenants behind the real HTTP front door,
  gateway and a 2x2 sharded service; one keep-alive connection.
* ``ingest_stream`` — a durable service taking a moving-objects stream
  (ingest + departures) beside dirty-snapshot searches and 8 standing
  subscriptions.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.result import ResultSet
from repro.core.search import SearchOutcome
from repro.core.types import SegmentArray, concatenate
from repro.data import (FleetConfig, MovingObjectsWorkload,
                        make_random_walks, queries_from_database,
                        random_dataset, random_dense_dataset)
from repro.engines.cpu_scan import CpuScanEngine
from repro.engines.registry import get_engine
from repro.gateway import Gateway, GatewayHTTPServer
from repro.gateway.tenants import TenantConfig
from repro.gpu.costmodel import CpuCostModel, GpuCostModel
from repro.gpu.profiler import CpuSearchProfile
from repro.service import QueryService, SearchRequest
from repro.sharding import ShardedService
from repro.standing import Subscription

#: the paper's Fig. 6 (S3) and Fig. 4 (S1) query distances.
FIG6_D = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09)
S1_D = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
#: a SegmentArray's coordinate columns, in constructor order.
COORDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te")
#: the engines ``method="auto"`` chooses among (``plan_search``).
PLANNER_ENGINES = ("gpu_temporal", "gpu_spatiotemporal", "gpu_spatial",
                   "cpu_rtree")


def result_digest(results: ResultSet) -> str:
    """SHA-1 over the canonical raw bytes of a result set: byte
    identity, not tolerance."""
    c = results.canonical()
    h = hashlib.sha1()
    for arr in (c.q_ids, c.e_ids, c.t_lo, c.t_hi):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def segments_digest(segments: SegmentArray) -> str:
    """SHA-1 over every column of ``segments`` ordered by seg_id."""
    order = np.argsort(segments.seg_ids, kind="stable")
    h = hashlib.sha1()
    for name in ("seg_ids", "traj_ids", *COORDS):
        h.update(np.ascontiguousarray(
            getattr(segments, name)[order]).tobytes())
    return h.hexdigest()


@dataclass
class Phase:
    """What one session's run produced."""

    setup_s: list[float] = field(default_factory=list)
    search_lat: list[float] = field(default_factory=list)
    write_lat: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    #: wall seconds the operations took (off-clock work excluded).
    busy_s: float = 0.0
    #: ``(operations, seconds)`` of each schedule block, in order.
    windows: list[tuple[int, float]] = field(default_factory=list)
    modeled_s: float = 0.0
    peak_rss_mb: float = 0.0
    notes: list[str] = field(default_factory=list)
    #: exact byte counts at the HTTP boundary (serve_http only).
    bytes_in: int = 0
    bytes_out: int = 0
    #: engine-cache hits/misses over the session (service workloads).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ops(self) -> int:
        return len(self.search_lat) + len(self.write_lat)


class Workload:
    """Base: seeded inputs plus the schedule sizing."""

    name = ""
    #: schedule units (operations, rounds or epochs) per second of
    #: budget, measured on a 2-core x86-64 container; ``BLOCK`` units
    #: form one balanced group the schedule never splits.
    RATE = 1.0
    BLOCK = 1

    def __init__(self, seed: int, workdir: Path,
                 cache: dict | None = None) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        #: referee answers keyed by an input digest (see sweep_dense).
        self.cache = cache if cache is not None else {}

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def schedule(self, seconds: float) -> int:
        """Operations in a session sized to ``seconds``: whole blocks,
        at least one."""
        blocks = max(1, round(seconds * self.RATE / self.BLOCK))
        return blocks * self.BLOCK


# -- sweep_dense ----------------------------------------------------------------


class SweepDense(Workload):
    """Random-dense d-sweep through ``engine.search`` (Fig. 6 use)."""

    name = "sweep_dense"
    # Small enough that a 10 s budget holds 7 rounds: the tail (11th
    # largest search) then falls among the rounds' first-d searches,
    # which pay the coefficient build, not at the edge of that group.
    SCALE = 0.005
    QUERY_TRAJECTORIES = 5
    ENGINES = ("gpu_temporal", "gpu_spatiotemporal", "cpu_rtree")
    OPS_PER_ROUND = len(ENGINES) * len(FIG6_D)
    RATE = 19.0
    BLOCK = OPS_PER_ROUND

    def __init__(self, seed, workdir, cache=None):
        super().__init__(seed, workdir, cache)
        self.db = random_dense_dataset(scale=self.SCALE, rng=self.rng(1))
        self.engines: dict = {}
        self._queries: tuple[int, SegmentArray] | None = None

    def describe(self) -> str:
        return (f"random-dense scale {self.SCALE} ({len(self.db)} "
                f"segments); {self.QUERY_TRAJECTORIES}-trajectory query "
                f"set per round x {len(FIG6_D)} d x "
                f"{len(self.ENGINES)} engines; 1 closed-loop caller")

    def query_set(self, round_: int) -> SegmentArray:
        """The round's query set; the same object for the whole round,
        so the engines' identity-keyed caches see one query set."""
        if self._queries is None or self._queries[0] != round_:
            self._queries = (round_, queries_from_database(
                self.db, self.QUERY_TRAJECTORIES,
                rng=self.rng(2, round_)))
        return self._queries[1]

    def setup(self) -> float:
        self.engines = {}
        gc.collect()
        warm = queries_from_database(self.db, 1, rng=self.rng(3))
        t0 = time.perf_counter()
        engines = {m: get_engine(m).from_config(self.db)
                   for m in self.ENGINES}
        for engine in engines.values():
            engine.search(warm, FIG6_D[0], exclude_same_trajectory=True)
        elapsed = time.perf_counter() - t0
        self.engines = engines
        return elapsed

    def session(self, ops: int, *, setups: int = 1,
                tracer=None) -> Phase:
        phase = Phase()
        phase.setup_s.append(self.setup())
        gpu_model, cpu_model = GpuCostModel(), CpuCostModel()
        answers: list[tuple[int, int, str]] = []
        round_start = 0.0
        for k in range(ops):
            round_, rest = divmod(k, self.OPS_PER_ROUND)
            e_idx, d_idx = divmod(rest, len(FIG6_D))
            queries = self.query_set(round_)
            engine = self.engines[self.ENGINES[e_idx]]
            d = FIG6_D[d_idx]
            phase.attempted += 1
            t0 = time.perf_counter()
            if tracer is None:
                results, profile = engine.search(
                    queries, d, exclude_same_trajectory=True)
            else:
                with tracer.root("op.search", f"q{k}"):
                    results, profile = engine.search(
                        queries, d, exclude_same_trajectory=True)
            lat = time.perf_counter() - t0
            phase.busy_s += lat
            phase.search_lat.append(lat)
            if rest == self.OPS_PER_ROUND - 1:
                phase.windows.append((self.OPS_PER_ROUND,
                                      phase.busy_s - round_start))
                round_start = phase.busy_s
            model = (cpu_model if isinstance(profile, CpuSearchProfile)
                     else gpu_model)
            phase.modeled_s += profile.modeled_time(model).total
            answers.append((round_, d_idx, result_digest(results)))
        phase.peak_rss_mb = peak_rss_mb()
        for _ in range(setups - 1):
            phase.setup_s.append(self.setup())
        self.teardown()
        with off_clock(tracer):
            self._referee(phase, answers)
        return phase

    def _referee(self, phase: Phase, answers) -> None:
        db_key = segments_digest(self.db)
        scan = None
        want: dict[tuple[int, int], str] = {}
        for round_, d_idx, got in answers:
            if (round_, d_idx) not in want:
                queries = self.query_set(round_)
                key = hashlib.sha1(
                    f"{db_key}:{segments_digest(queries)}:"
                    f"{FIG6_D[d_idx]!r}:self".encode()).hexdigest()
                if key not in self.cache:
                    if scan is None:
                        scan = CpuScanEngine(self.db)
                    results, _ = scan.search(
                        queries, FIG6_D[d_idx],
                        exclude_same_trajectory=True)
                    self.cache[key] = result_digest(results)
                want[(round_, d_idx)] = self.cache[key]
            if got != want[(round_, d_idx)]:
                phase.mismatched += 1

    def teardown(self) -> None:
        self.engines = {}


# -- serve_http -----------------------------------------------------------------


class _HttpClient:
    """One keep-alive HTTP/1.1 connection that counts its bytes."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "_HttpClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def post(self, path: str, body: bytes, api_key: str
                   ) -> tuple[int, bytes, int, int]:
        """Send one request; returns (status, body, bytes sent,
        bytes received)."""
        head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"X-Api-Key: {api_key}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        received = len(status_line)
        length = 0
        while True:
            line = await self.reader.readline()
            received += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length)
        received += length
        status = int(status_line.split()[1])
        return status, payload, len(head) + len(body), received

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class ServeHttp(Workload):
    """Interactive searches over HTTP -> gateway -> 2x2 shards."""

    name = "serve_http"
    SCALE = 0.05
    QUERY_STEPS = 400
    #: One connection: with two, the client coroutines and the server
    #: share one event loop (or, as threads, one interpreter lock) and
    #: the interleaving made one seed's median latency swing by a third
    #: between runs.
    CONNECTIONS = 1
    API_KEY = "bench-key"
    RATE = 12.0
    #: one request per S1 distance, in a seeded order.
    BLOCK = len(S1_D)
    MAX_WARMUP_PASSES = 8

    def __init__(self, seed, workdir, cache=None):
        super().__init__(seed, workdir, cache)
        self.db = random_dataset(scale=self.SCALE, rng=self.rng(1))
        n = max(2, int(round(2500 * self.SCALE)))
        self.side = 1000.0 * (n / 2500.0) ** (1.0 / 3.0)
        self.server = self.gateway = self.backend = None
        self.clients: list[_HttpClient] = []
        self.server_errors: list[str] = []

    def describe(self) -> str:
        return (f"random scale {self.SCALE} ({len(self.db)} segments); "
                f"{self.QUERY_STEPS}-step fresh query per request, d "
                f"from S1, method=auto; {self.CONNECTIONS} keep-alive "
                f"connection(s), closed loop")

    def request(self, k: int, stream: int = 2
                ) -> tuple[SearchRequest, bytes]:
        block, slot = divmod(k, len(S1_D))
        d = S1_D[int(self.rng(stream, block).permutation(len(S1_D))[slot])]
        rng = self.rng(stream, block, slot)
        queries = SegmentArray.from_trajectories(make_random_walks(
            num_trajectories=1, num_timesteps=self.QUERY_STEPS,
            box_side=self.side, step_sigma=1.0,
            start_time_range=(0.0, 100.0), rng=rng,
            first_traj_id=10_000_000 + k))
        request = SearchRequest(queries=queries, d=d, method="auto",
                                request_id=f"r{stream}-{k}")
        return request, json.dumps(request.to_dict()).encode("utf-8")

    def replicas(self):
        return [r.service for s in self.backend.shards
                for r in s.replicas if r.live]

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        # Let every server-side handler see EOF and finish before the
        # server closes, so none is cancelled mid-request.
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks() if t is not current]
        if pending:
            await asyncio.wait(pending, timeout=10.0)
        if self.server is not None:
            await self.server.stop()
        self.server = self.gateway = self.backend = None

    async def _setup(self) -> float:
        await self._stop()
        gc.collect()
        # A warm-up search builds the engine; the smallest d keeps the
        # search itself (and its buffers) small.
        probe = replace(self.request(0, stream=3)[0], d=min(S1_D))
        explicit = [json.dumps(replace(probe, method=m).to_dict()).encode()
                    for m in PLANNER_ENGINES for _ in range(2)]
        passes = [[self.request(len(S1_D) * p + i, stream=4)[1]
                   for i in range(len(S1_D))]
                  for p in range(self.MAX_WARMUP_PASSES)]
        t0 = time.perf_counter()
        self.backend = ShardedService(self.db, num_shards=2,
                                      replicas_per_shard=2)
        self.gateway = Gateway(self.backend, [TenantConfig(
            tenant_id="bench", api_key=self.API_KEY, rate=1e9,
            burst=1e9)])
        self.server = GatewayHTTPServer(self.gateway)
        host, port = await self.server.start()
        self.clients = [await _HttpClient.connect(host, port)
                        for _ in range(self.CONNECTIONS)]
        # Build every engine the planner can pick on every replica
        # (requests go out in pairs so the router's round robin reaches
        # both replicas of each shard), then send one request per d
        # until a pass builds nothing new anywhere.
        post = self.clients[0].post
        for body in explicit:
            await post("/v1/search", body, self.API_KEY)
        builds = None
        for bodies in passes:
            for body in bodies:
                await post("/v1/search", body, self.API_KEY)
            now = [svc.cache.stats.misses for svc in self.replicas()]
            if now == builds:
                break
            builds = now
        return time.perf_counter() - t0

    async def _run(self, phase: Phase, ops: int, tracer) -> list:
        # Requests are generated before the clock starts.
        prepared = [self.request(k) for k in range(ops)]
        answers: list = []
        completions: list[float] = []
        pending = iter(range(ops))

        async def client_loop(client: _HttpClient) -> None:
            for k in pending:
                request, body = prepared[k]
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = await client.post("/v1/search", body,
                                                self.API_KEY)
                    else:
                        with tracer.root("gateway.http",
                                         request.request_id):
                            out = await client.post(
                                "/v1/search", body, self.API_KEY)
                except (ConnectionError, asyncio.IncompleteReadError):
                    phase.failed += 1
                    return
                done = time.perf_counter()
                completions.append(done)
                status, payload, sent, received = out
                phase.bytes_in += sent
                phase.bytes_out += received
                if status != 200:
                    phase.failed += 1
                    continue
                phase.search_lat.append(done - t0)
                answers.append((k, request, payload))

        t_start = time.perf_counter()
        await asyncio.gather(*(client_loop(c) for c in self.clients))
        phase.busy_s = time.perf_counter() - t_start
        prev = t_start
        for end in range(self.BLOCK, len(completions) + 1, self.BLOCK):
            phase.windows.append((self.BLOCK, completions[end - 1] - prev))
            prev = completions[end - 1]
        return answers

    async def _session(self, ops, setups, tracer) -> Phase:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, ctx: self.server_errors.append(
                str(ctx.get("exception") or ctx.get("message"))))
        phase = Phase()
        try:
            phase.setup_s.append(await self._setup())
            hits0 = sum(s.cache.stats.hits for s in self.replicas())
            miss0 = sum(s.cache.stats.misses for s in self.replicas())
            answers = await self._run(phase, ops, tracer)
            phase.cache_hits = sum(
                s.cache.stats.hits for s in self.replicas()) - hits0
            phase.cache_misses = sum(
                s.cache.stats.misses for s in self.replicas()) - miss0
            if tracer is not None:
                # Set-up builds belong to the traced run too.
                phase.cache_hits += hits0
                phase.cache_misses += miss0
            phase.peak_rss_mb = peak_rss_mb()
            for _ in range(setups - 1):
                phase.setup_s.append(await self._setup())
        finally:
            await self._stop()
        phase.failed = min(phase.attempted,
                           phase.failed + len(self.server_errors))
        phase.notes += [f"server error: {e}" for e in self.server_errors]
        with off_clock(tracer):
            self._referee(phase, answers)
        return phase

    def session(self, ops: int, *, setups: int = 1,
                tracer=None) -> Phase:
        self.server_errors = []
        return asyncio.run(self._session(ops, setups, tracer))

    def _referee(self, phase: Phase, answers) -> None:
        scan = CpuScanEngine(self.db)
        for k, request, payload in answers:
            body = json.loads(payload)
            response = body.get("response") or {}
            if body.get("status") != "ok" or response.get("outcome") \
                    is None:
                phase.failed += 1
                continue
            outcome = SearchOutcome.from_dict(response["outcome"])
            phase.modeled_s += outcome.modeled_seconds
            want, _ = scan.search(request.queries, request.d)
            if result_digest(outcome.results) != result_digest(want):
                phase.mismatched += 1

    def teardown(self) -> None:
        pass


# -- ingest_stream --------------------------------------------------------------


class IngestStream(Workload):
    """Durable ingest + departures beside dirty-snapshot searches."""

    name = "ingest_stream"
    BASE_TRAJECTORIES = 200
    BASE_STEPS = 401
    BOX = 100.0
    # ~1.2k segments per epoch, so the default compaction policy (4096
    # delta rows) folds every 4th epoch, and few enough departures that
    # the WAL never reaches the 16-record periodic checkpoint between
    # compactions: every seed checkpoints at the same epochs.
    FLEET = FleetConfig(num_fleets=30, vehicles_per_fleet=10,
                        epoch_steps=4, box_side=100.0,
                        arrival_rate=0.02, departure_rate=0.002)
    SUBSCRIPTIONS = 8
    SEARCHES_PER_EPOCH = 2
    SEARCH_METHOD = "gpu_temporal"
    SEARCH_D = 2.0
    SUB_D = 3.0
    QUERY_STEPS = 20
    #: epochs (one ingest, its departures, its searches) per second;
    #: a block is one compaction cycle.
    RATE = 2.9
    BLOCK = 4

    def __init__(self, seed, workdir, cache=None):
        super().__init__(seed, workdir, cache)
        self.base = SegmentArray.from_trajectories(make_random_walks(
            num_trajectories=self.BASE_TRAJECTORIES,
            num_timesteps=self.BASE_STEPS, box_side=self.BOX,
            step_sigma=1.0, rng=self.rng(1),
            first_traj_id=1_000_000))
        self.subs = self._subscriptions()
        self.service: QueryService | None = None
        self._setups = 0

    def describe(self) -> str:
        f = self.FLEET
        return (f"random-walk base {len(self.base)} segments; fleet "
                f"{f.num_fleets}x{f.vehicles_per_fleet} vehicles x "
                f"{f.epoch_steps} steps per epoch; "
                f"{self.SEARCHES_PER_EPOCH} {self.SEARCH_METHOD} "
                f"searches per epoch; {self.SUBSCRIPTIONS} standing "
                f"subscriptions; fsync WAL; 1 closed-loop caller")

    def _subscriptions(self) -> list[Subscription]:
        rng = self.rng(4)
        subs = []
        for i in range(self.SUBSCRIPTIONS):
            t0 = 40.0 * i
            queries = SegmentArray.from_trajectories(make_random_walks(
                num_trajectories=1, num_timesteps=41,
                box_side=self.BOX, step_sigma=1.0,
                start_time_range=(t0, t0), rng=rng,
                first_traj_id=5_000_000 + i))
            window = ((t0 + 5.0, t0 + 35.0) if i % 3 == 1 else None)
            subs.append(Subscription(sub_id=f"sub-{i}", queries=queries,
                                     d=self.SUB_D, window=window))
        return subs

    def _query(self, epoch: int, j: int, t_end: float) -> SegmentArray:
        t0 = max(0.0, t_end - self.QUERY_STEPS)
        return SegmentArray.from_trajectories(make_random_walks(
            num_trajectories=1, num_timesteps=self.QUERY_STEPS + 1,
            box_side=self.BOX, step_sigma=1.0,
            start_time_range=(t0, t0), rng=self.rng(5, epoch, j),
            first_traj_id=6_000_000 + 2 * epoch + j))

    def _close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self) -> float:
        self._close()
        gc.collect()
        self._setups += 1
        directory = self.workdir / f"svc-{self._setups}"
        warm = self._query(0, 0, float(self.BASE_STEPS - 1))
        t0 = time.perf_counter()
        service = QueryService(self.base, durability_dir=directory)
        for sub in self.subs:
            service.register_subscription(sub)
        while True:
            response = service.submit(SearchRequest(
                queries=warm, d=self.SEARCH_D, method=self.SEARCH_METHOD,
                request_id="warm"))
            if response.metrics.cache_hit:
                break
        elapsed = time.perf_counter() - t0
        self.service = service
        return elapsed

    def session(self, ops: int, *, setups: int = 1,
                tracer=None) -> Phase:
        """``ops`` counts epochs for this workload (one epoch is one
        ingest, its departures and its searches)."""
        phase = Phase()
        try:
            phase.setup_s.append(self.setup())
            self._stream(phase, ops, tracer)
            for _ in range(setups - 1):
                phase.setup_s.append(self.setup())
        finally:
            self._close()
        return phase

    def _stream(self, phase: Phase, epochs: int, tracer) -> None:
        service = self.service
        stats0 = service.cache.stats
        hits0, miss0 = ((0, 0) if tracer is not None
                        else (stats0.hits, stats0.misses))
        fleet = MovingObjectsWorkload(self.FLEET, seed=self.seed)
        shadow_parts = [self.base]
        ingested: set[int] = set()
        deleted: set[int] = set()
        scan: tuple[int, CpuScanEngine] | None = None
        block_ops, block_busy = phase.ops, phase.busy_s
        for e in range(epochs):
            if e % self.BLOCK == 0 and e:
                phase.windows.append((phase.ops - block_ops,
                                      phase.busy_s - block_busy))
                block_ops, block_busy = phase.ops, phase.busy_s
            delta = fleet.next_epoch()
            receipt = self._op(phase, tracer, f"e{e}-in", "op.ingest",
                               service.ingest, delta.segments)
            if receipt is not None:
                ingested.update(receipt.trajectory_ids)
                shadow_parts.append(_restamp(delta.segments,
                                             receipt.seg_ids))
            for tid in delta.departures:
                if tid not in ingested:
                    continue  # departed before its first observation
                if self._op(phase, tracer, f"e{e}-del{tid}", "op.delete",
                            service.delete_trajectory, tid) is not None:
                    deleted.add(int(tid))
            t_end = delta.t_range[1]
            for j in range(self.SEARCHES_PER_EPOCH):
                queries = self._query(e, j, t_end)
                snapshot = service.current_snapshot()
                rid = f"e{e}-s{j}"
                request = SearchRequest(
                    queries=queries, d=self.SEARCH_D,
                    method=self.SEARCH_METHOD, request_id=rid)
                response = self._op(phase, tracer, rid, "op.search",
                                    service.submit, request, search=True)
                if response is None:
                    continue
                if not response.ok or response.metrics.snapshot_epoch \
                        != snapshot.epoch:
                    phase.failed += 1
                    continue
                phase.modeled_s += response.outcome.modeled_seconds
                with off_clock(tracer):
                    if scan is None or scan[0] != snapshot.epoch:
                        scan = (snapshot.epoch,
                                CpuScanEngine(snapshot.logical()))
                    want, _ = scan[1].search(queries, self.SEARCH_D)
                    if result_digest(want) != result_digest(
                            response.outcome.results):
                        phase.mismatched += 1
        phase.windows.append((phase.ops - block_ops,
                              phase.busy_s - block_busy))
        phase.peak_rss_mb = peak_rss_mb()
        phase.cache_hits = service.cache.stats.hits - hits0
        phase.cache_misses = service.cache.stats.misses - miss0
        with off_clock(tracer):
            self._final_checks(phase, shadow_parts, deleted)

    def _op(self, phase: Phase, tracer, rid: str, root: str, fn, *args,
            search: bool = False):
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn(*args)
            else:
                with tracer.root(root, rid):
                    out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            phase.busy_s += time.perf_counter() - t0
            phase.failed += 1
            phase.notes.append(f"{rid}: {type(exc).__name__}: {exc}")
            return None
        lat = time.perf_counter() - t0
        phase.busy_s += lat
        (phase.search_lat if search else phase.write_lat).append(lat)
        return out

    def _final_checks(self, phase: Phase, shadow_parts, deleted) -> None:
        """Final logical database and every subscription's held
        matches against a from-scratch rebuild."""
        shadow = concatenate(shadow_parts)
        if deleted:
            shadow = shadow.take(np.flatnonzero(
                ~np.isin(shadow.traj_ids, np.fromiter(deleted, np.int64))))
        logical = self.service.current_snapshot().logical()
        if segments_digest(logical) != segments_digest(shadow):
            phase.mismatched += 1
            phase.notes.append("final logical database differs from "
                               "the replayed stream")
        scan = CpuScanEngine(logical)
        for sub in self.subs:
            results, _ = scan.search(
                sub.queries, sub.d,
                exclude_same_trajectory=sub.exclude_same_trajectory)
            if result_digest(sub.apply_window(results)) != result_digest(
                    self.service.standing.results(sub.sub_id)):
                phase.mismatched += 1
                phase.notes.append(f"{sub.sub_id}: held matches differ "
                                   f"from cpu_scan")

    def teardown(self) -> None:
        self._close()


def _restamp(segments: SegmentArray, seg_ids) -> SegmentArray:
    """``segments`` carrying the seg_ids the service assigned."""
    return SegmentArray(
        *(getattr(segments, f) for f in COORDS),
        traj_ids=segments.traj_ids,
        seg_ids=np.asarray(seg_ids, dtype=np.int64))


def off_clock(tracer):
    """Context for the benchmark's own checking work: never traced."""
    return contextlib.nullcontext() if tracer is None \
        else tracer.suspended()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (SweepDense, ServeHttp, IngestStream)}
