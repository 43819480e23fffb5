"""Multi-analyst workload scripts and their concurrent replay.

The service CLI (``python -m repro.service``), the workload generator and
the crash worker all need the same thing: a declarative description of "which
analyst issues which requests", executed with one thread per analyst against
an :class:`~repro.service.exploration.ExplorationService`, and a merged
report at the end.  This module provides exactly that:

* :class:`ScriptRequest` / :class:`AnalystScript` -- one request
  (``preview``/``explore`` in the declarative text language, a streaming
  ``append_rows``, or a :mod:`repro.workloads` ``generator`` period), and
  an analyst's ordered request list;
* :func:`default_script` -- a built-in mixed workload over the synthetic
  Adult and NYTaxi tables (histograms, iceberg and top-k queries of the
  paper's running examples), parameterised by analyst count;
* :func:`load_script` -- read a script from a JSON file (the format is
  documented in ``docs/architecture.md``);
* :func:`replay` -- run every analyst concurrently and return a
  :class:`ReplayReport` with per-request outcomes, the merged transcript
  summary, and the Theorem 6.2 validity verdict.

Each analyst's requests run strictly in order (an analyst is a sequential
agent), while different analysts interleave freely -- the interesting
concurrency is *between* sessions, which is exactly what the shared budget
pool has to survive.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError
from repro.queries.parser import parse_query
from repro.service.exploration import ExplorationService

__all__ = [
    "ScriptRequest",
    "AnalystScript",
    "RequestOutcome",
    "ReplayReport",
    "default_script",
    "load_script",
    "replay",
]


@dataclass(frozen=True)
class ScriptRequest:
    """One scripted request: an operation plus its payload.

    :ivar op: ``"explore"`` (spends privacy), ``"preview"`` (cost only),
        ``"append_rows"`` (streaming ingest: the owner grows the table
        between analyst requests, advancing its version token), or
        ``"generator"`` (one simulated period of a
        :mod:`repro.workloads` microsimulation stream: the next batch is
        generated on the fly and appended).
    :ivar text: for ``explore``/``preview``, the query in the declarative
        language, including its ``ERROR ... CONFIDENCE ...`` clause.
    :ivar rows: for ``append_rows``, the ``{attribute: value}`` dicts to
        append (missing keys become NULL).
    :ivar generator: for ``generator``, ``{"config": {...}}`` -- a
        :class:`~repro.workloads.config.GeneratorConfig` payload.  All
        requests sharing one config (by value) share one generator
        instance, and each request consumes its next period in script
        order.
    """

    op: str
    text: str = ""
    rows: tuple[dict, ...] = ()
    generator: dict | None = None

    def __post_init__(self) -> None:
        if self.op not in ("explore", "preview", "append_rows", "generator"):
            raise ApexError(f"unknown script op {self.op!r}")
        if self.op == "append_rows":
            if not self.rows:
                raise ApexError("an append_rows request needs a non-empty 'rows' list")
        elif self.op == "generator":
            if not self.generator or "config" not in self.generator:
                raise ApexError(
                    "a generator request needs a 'generator' payload with a 'config'"
                )
        elif not self.text:
            raise ApexError(f"a {self.op!r} request needs a query 'text'")


@dataclass(frozen=True)
class AnalystScript:
    """One analyst's ordered request sequence against one table."""

    analyst: str
    table: str
    requests: tuple[ScriptRequest, ...]


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one scripted request during replay.

    Exactly one of three shapes: answered (``denied=False, error=None``),
    budget-denied (``denied=True``), or hard-errored (``error`` set,
    ``denied=False`` -- an error is not an admission-control decision).
    """

    analyst: str
    op: str
    query_name: str
    denied: bool
    mechanism: str | None
    epsilon_spent: float
    error: str | None = None


@dataclass
class ReplayReport:
    """The merged result of one concurrent replay."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    budget: float = 0.0
    epsilon_spent: float = 0.0
    transcript_valid: bool = False
    transcript_summary: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """A JSON-serialisable view of the report."""
        return {
            "budget": self.budget,
            "epsilon_spent": self.epsilon_spent,
            "transcript_valid": self.transcript_valid,
            "transcript_summary": self.transcript_summary,
            "latency": self.latency,
            "outcomes": [
                {
                    "analyst": o.analyst,
                    "op": o.op,
                    "query": o.query_name,
                    "denied": o.denied,
                    "mechanism": o.mechanism,
                    "epsilon_spent": o.epsilon_spent,
                    "error": o.error,
                }
                for o in self.outcomes
            ],
        }


def _adult_requests(population: int, variant: int) -> list[ScriptRequest]:
    """The Adult-side request mix: Section 3.1's running examples."""
    alpha = 0.08 * population
    tail = ["ERROR {a} CONFIDENCE 0.9995;".format(a=alpha)]
    gain_bins = ", ".join(
        f"capital_gain BETWEEN {low} AND {low + 1000}"
        for low in range(0, 5000, 1000)
    )
    age_bins = ", ".join(
        f"age BETWEEN {low} AND {low + 15}" for low in range(15, 90, 15)
    )
    states = ("CA", "NY", "TX", "FL", "WA", "WY")[variant % 3 :][:4]
    state_bins = ", ".join(
        f"label = '>5000' AND state = '{state}'" for state in states
    )
    work_bins = ", ".join(
        f"workclass = '{w}'"
        for w in ("private", "self-emp-not-inc", "federal-gov", "state-gov")
    )
    requests = [
        ScriptRequest("preview", f"BIN D ON COUNT(*) WHERE W = {{{gain_bins}}} {tail[0]}"),
        ScriptRequest("explore", f"BIN D ON COUNT(*) WHERE W = {{{gain_bins}}} {tail[0]}"),
        ScriptRequest("preview", f"BIN D ON COUNT(*) WHERE W = {{{age_bins}}} {tail[0]}"),
        ScriptRequest(
            "explore",
            f"BIN D ON COUNT(*) WHERE W = {{{state_bins}}} "
            f"HAVING COUNT(*) > 150 {tail[0]}",
        ),
        ScriptRequest(
            "explore",
            f"BIN D ON COUNT(*) WHERE W = {{{work_bins}}} "
            f"ORDER BY COUNT(*) LIMIT 2 {tail[0]}",
        ),
    ]
    return requests


def _taxi_requests(population: int) -> list[ScriptRequest]:
    """The NYTaxi-side request mix: hourly demand profiling."""
    alpha = 0.08 * population
    hour_bins = ", ".join(
        f"pickup_hour BETWEEN {h} AND {h + 6}" for h in range(0, 24, 6)
    )
    distance_bins = ", ".join(
        f"trip_distance BETWEEN {low} AND {low + 5}" for low in range(0, 25, 5)
    )
    return [
        ScriptRequest(
            "preview",
            f"BIN D ON COUNT(*) WHERE W = {{{hour_bins}}} "
            f"ERROR {alpha} CONFIDENCE 0.9995;",
        ),
        ScriptRequest(
            "explore",
            f"BIN D ON COUNT(*) WHERE W = {{{hour_bins}}} "
            f"ERROR {alpha} CONFIDENCE 0.9995;",
        ),
        ScriptRequest(
            "explore",
            f"BIN D ON COUNT(*) WHERE W = {{{distance_bins}}} "
            f"ERROR {alpha} CONFIDENCE 0.9995;",
        ),
    ]


def default_script(
    n_analysts: int,
    *,
    tables: Sequence[str] = ("adult",),
    adult_rows: int = 32_561,
    taxi_rows: int = 200_000,
) -> list[AnalystScript]:
    """A built-in multi-analyst workload over the synthetic tables.

    Analysts round-robin over ``tables``; each gets the table's request mix,
    with a variant offset so neighbouring analysts ask overlapping but not
    identical sequences (some cold translations coalesce, some don't).
    """
    if n_analysts <= 0:
        raise ApexError("n_analysts must be positive")
    scripts = []
    for i in range(n_analysts):
        table = tables[i % len(tables)]
        if table == "adult":
            requests = _adult_requests(adult_rows, variant=i)
        elif table in ("taxi", "nytaxi"):
            requests = _taxi_requests(taxi_rows)
        else:
            raise ApexError(f"default_script knows no table {table!r}")
        scripts.append(
            AnalystScript(
                analyst=f"analyst-{i:02d}", table=table, requests=tuple(requests)
            )
        )
    return scripts


def load_script(path: str) -> list[AnalystScript]:
    """Read a replay script from JSON.

    Expected shape::

        {"analysts": [
            {"name": "alice", "table": "adult", "requests": [
                {"op": "explore", "text": "BIN D ON COUNT(*) WHERE ... ;"}
            ]}
        ]}
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    scripts = []
    for spec in payload.get("analysts", []):
        requests = tuple(
            ScriptRequest(
                op=r["op"],
                text=r.get("text", ""),
                rows=tuple(dict(row) for row in r.get("rows", ())),
                generator=r.get("generator"),
            )
            for r in spec["requests"]
        )
        scripts.append(
            AnalystScript(
                analyst=str(spec["name"]),
                table=str(spec.get("table", "adult")),
                requests=requests,
            )
        )
    if not scripts:
        raise ApexError(f"script {path!r} defines no analysts")
    return scripts


class _GeneratorPool:
    """Shared microsimulation streams for one replay run.

    ``generator`` requests referencing the same config (by value) must
    consume *one* stream in period order, even though requests run on
    analyst threads; the pool interns generators by their canonical config
    JSON and hands out batches under a lock.  The workloads package is
    imported lazily so plain replays don't pay for it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: dict[str, object] = {}

    def next_batch(self, payload: dict):
        from repro.workloads import GeneratorConfig, MicrosimulationGenerator

        key = json.dumps(payload["config"], sort_keys=True, separators=(",", ":"))
        with self._lock:
            stream = self._streams.get(key)
            if stream is None:
                config = GeneratorConfig.from_json(payload["config"])
                stream = MicrosimulationGenerator(config).batches()
                self._streams[key] = stream
            try:
                return next(stream)  # type: ignore[call-overload]
            except StopIteration:
                raise ApexError(
                    "the generator stream is exhausted: more 'generator' "
                    "requests than configured periods"
                ) from None


def replay(
    service: ExplorationService,
    scripts: Sequence[AnalystScript],
    *,
    start_barrier: bool = True,
) -> ReplayReport:
    """Run every analyst's script concurrently (one thread per analyst).

    Sessions are registered up front (so fixed-share services size their
    shares before any request runs), then all threads are released together
    through a barrier to maximise interleaving.  Request failures other than
    budget denials are captured per request, never swallowed silently.
    """
    for script in scripts:
        service.register_analyst(script.analyst, table=script.table)
    barrier = threading.Barrier(len(scripts)) if start_barrier and scripts else None
    report = ReplayReport(budget=service.budget)
    report_lock = threading.Lock()
    generators = _GeneratorPool()

    def run_one(script: AnalystScript) -> None:
        if barrier is not None:
            barrier.wait()
        for request in script.requests:
            outcome: RequestOutcome
            try:
                if request.op == "append_rows":
                    version = service.append_rows(script.table, request.rows)
                    with report_lock:
                        report.outcomes.append(
                            RequestOutcome(
                                analyst=script.analyst,
                                op=request.op,
                                query_name=(
                                    f"append_rows[{len(request.rows)} rows -> "
                                    f"v{version.ordinal}]"
                                ),
                                denied=False,
                                mechanism=None,
                                epsilon_spent=0.0,
                            )
                        )
                    continue  # no query to parse; outcome already recorded
                if request.op == "generator":
                    batch = generators.next_batch(request.generator)
                    version = service.append_rows(script.table, batch.rows)
                    effect = "drift" if batch.changes_fingerprint else "preserve"
                    with report_lock:
                        report.outcomes.append(
                            RequestOutcome(
                                analyst=script.analyst,
                                op=request.op,
                                query_name=(
                                    f"generator[p{batch.period}: "
                                    f"{len(batch.rows)} rows -> "
                                    f"v{version.ordinal}, {effect}]"
                                ),
                                denied=False,
                                mechanism=None,
                                epsilon_spent=0.0,
                            )
                        )
                    continue
                query, accuracy = parse_query(request.text)
                if accuracy is None:
                    raise ApexError("scripted queries must carry ERROR/CONFIDENCE")
                if request.op == "preview":
                    service.preview_cost(script.analyst, query, accuracy)
                    outcome = RequestOutcome(
                        analyst=script.analyst,
                        op=request.op,
                        query_name=query.name,
                        denied=False,
                        mechanism=None,
                        epsilon_spent=0.0,
                    )
                else:
                    result = service.explore(script.analyst, query, accuracy)
                    outcome = RequestOutcome(
                        analyst=script.analyst,
                        op=request.op,
                        query_name=query.name,
                        denied=result.denied,
                        mechanism=result.mechanism,
                        epsilon_spent=result.epsilon_spent,
                    )
            except Exception as exc:
                # A hard error (parse failure, infrastructure bug) is NOT a
                # budget denial: denied stays False so the report's denial
                # counts keep meaning "admission control refused the query".
                outcome = RequestOutcome(
                    analyst=script.analyst,
                    op=request.op,
                    query_name=request.text[:60],
                    denied=False,
                    mechanism=None,
                    epsilon_spent=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            with report_lock:
                report.outcomes.append(outcome)

    threads = [
        threading.Thread(target=run_one, args=(script,), name=f"replay-{script.analyst}")
        for script in scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    merged = service.merged_transcript()
    report.epsilon_spent = merged.total_epsilon()
    report.transcript_valid = service.validate()
    report.transcript_summary = merged.summary()
    report.latency = service.latency_stats()
    return report
