"""Per-PE time accounting and run-level results.

The paper tabulates, per slave, ``T_com / T_wait / T_comp`` (Tables 2
and 3) and the total parallel time ``T_p`` "measured on the Master PE".
The simulator accounts the same three buckets:

* ``t_com``  -- time the PE's messages occupy its link (request +
  piggy-backed results out, reply in, result flushes for TreeS);
* ``t_wait`` -- time between finishing a transmission and receiving the
  next assignment that is *not* link time: master queueing + service,
  plus terminal idling before the run ends;
* ``t_comp`` -- time spent executing loop iterations (wall time on the
  PE, i.e. inflated by external load in nondedicated mode).

``T_p`` is the virtual time at which the last result lands on the
master.
"""

from __future__ import annotations

import dataclasses
import math
from operator import attrgetter
from typing import Optional

import numpy as np

__all__ = [
    "WorkerMetrics", "ChunkRecord", "CHUNK_FIELDS", "LazyChunkList",
    "SimResult", "imbalance",
]


@dataclasses.dataclass
class WorkerMetrics(object):
    """Accumulated times and counters for one slave PE."""

    name: str
    t_com: float = 0.0
    t_wait: float = 0.0
    t_comp: float = 0.0
    chunks: int = 0
    iterations: int = 0
    finished_at: float = 0.0

    @property
    def busy(self) -> float:
        """Total accounted time (com + wait + comp)."""
        return self.t_com + self.t_wait + self.t_comp

    def row(self) -> str:
        """The paper's cell format: ``T_com/T_wait/T_comp``."""
        return f"{self.t_com:.1f}/{self.t_wait:.1f}/{self.t_comp:.1f}"


@dataclasses.dataclass(slots=True)
class ChunkRecord(object):
    """One scheduling decision, for traces and post-hoc analysis.

    ``slots=True``: simulations produce one record per chunk on the
    hot path, and slots construction is measurably cheaper at the
    million-run sweep scale (no per-record ``__dict__``).
    """

    worker: int
    start: int
    stop: int
    assigned_at: float
    completed_at: float
    stage: int = 0
    #: the ACP the worker attached to the request that won this chunk
    #: (None for non-distributed schemes and requeued assignments).
    acp: Optional[int] = None

    @property
    def size(self) -> int:
        return self.stop - self.start


#: Field order of a chunk row -- the tuple form of :class:`ChunkRecord`
#: that results carry across every boundary (pickle, JSON, the wire).
CHUNK_FIELDS = tuple(f.name for f in dataclasses.fields(ChunkRecord))

_record_row = attrgetter(*CHUNK_FIELDS)


class LazyChunkList(object):
    """The chunk trace of a :class:`SimResult`: rows or records.

    The container holds either raw field rows -- tuples in
    :data:`CHUNK_FIELDS` order, as the analytic fast path and every
    decoded result produce them -- or the :class:`ChunkRecord` list a
    DES engine built.  Row-backed lists build the real records only
    when someone touches them (most sweep results only read ``t_p``
    and the worker metrics), exactly and at most once.  Every
    boundary a result crosses uses :meth:`rows`: pickling and
    :meth:`SimResult.to_dict` never construct per-chunk objects.
    """

    __slots__ = ("_rows", "_records")

    def __init__(self, rows: Optional[list[tuple]] = None,
                 records: Optional[list[ChunkRecord]] = None):
        # Takes ownership of whichever list it is given.
        if records is None and rows is None:
            rows = []
        self._rows = None if records is not None else rows
        self._records = records

    def rows(self) -> list[tuple]:
        """The chunks as full 7-field tuples, in :data:`CHUNK_FIELDS`
        order (read-only: it may be the container's own list)."""
        if self._rows is None:
            return list(map(_record_row, self._records))
        return self._rows

    def _materialize(self) -> list[ChunkRecord]:
        records = self._records
        if records is None:
            records = self._records = [
                ChunkRecord(*row) for row in self._rows
            ]
            self._rows = None
        return records

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else len(self._records)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyChunkList):
            other = other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:
        return repr(self._materialize())

    def __reduce__(self):
        # Pickles (e.g. crossing a process pool) as its rows: one
        # tuple per chunk, no per-record objects on either side.
        return (LazyChunkList, (self.rows(),))


@dataclasses.dataclass
class SimResult(object):
    """Everything a simulated run produced.

    ``chunks`` is always a :class:`LazyChunkList`; a plain list of
    :class:`ChunkRecord` (what the DES engines build) is wrapped on
    construction.
    """

    scheme: str
    workers: list[WorkerMetrics]
    t_p: float
    chunks: LazyChunkList
    results: Optional[np.ndarray] = None
    rederivations: int = 0
    events: int = 0
    #: unified observability trace (list of :class:`repro.obs.ObsEvent`)
    #: when the run was asked to collect one; ``events`` above predates
    #: the trace layer and counts *simulator queue* events, not these.
    obs_events: Optional[list] = None

    def __post_init__(self) -> None:
        if not isinstance(self.chunks, LazyChunkList):
            self.chunks = LazyChunkList(records=list(self.chunks))

    @property
    def total_iterations(self) -> int:
        return sum(w.iterations for w in self.workers)

    @property
    def total_chunks(self) -> int:
        return sum(w.chunks for w in self.workers)

    def comp_times(self) -> list[float]:
        return [w.t_comp for w in self.workers]

    def comp_imbalance(self) -> float:
        """Imbalance of computation time across PEs (see :func:`imbalance`)."""
        return imbalance(self.comp_times())

    def summary(self) -> str:
        lines = [f"{self.scheme}: T_p = {self.t_p:.2f}s, "
                 f"{self.total_chunks} chunks, "
                 f"imbalance = {self.comp_imbalance():.3f}"]
        for i, w in enumerate(self.workers, start=1):
            lines.append(f"  PE{i} ({w.name}): {w.row()}  "
                         f"[{w.chunks} chunks, {w.iterations} iters]")
        return "\n".join(lines)

    def to_dict(self, include_results: bool = False) -> dict:
        """JSON-safe dict; exact round trip via :meth:`from_dict`.

        ``"chunks"`` is one row per chunk: ``[worker, start, stop,
        assigned_at, completed_at, stage, acp]`` (:data:`CHUNK_FIELDS`
        order, always seven entries, ``acp`` null when absent).  The
        list is the result's own row list (treat it as read-only);
        ``json`` writes its tuples as arrays.
        ``"workers"`` is one object per PE, keyed by the
        :class:`WorkerMetrics` field names.

        Floats survive JSON exactly (``repr`` round-trips doubles in
        Python 3), so a persisted result is bit-identical after
        reload.  ``obs_events`` is intentionally excluded -- traces
        are bulky and have their own sinks (:mod:`repro.obs`);
        ``results`` arrays ride along only on request.
        """
        d = {
            "scheme": self.scheme,
            "t_p": self.t_p,
            "rederivations": self.rederivations,
            "events": self.events,
            "workers": [dict(vars(w)) for w in self.workers],
            "chunks": self.chunks.rows(),
        }
        if include_results and self.results is not None:
            d["results"] = self.results.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimResult":
        """Rebuild a result persisted with :meth:`to_dict`.

        Also reads the older form that stored each chunk as an object
        keyed by field name, so sweeps persisted before the row format
        still resume.
        """
        chunks = d["chunks"]
        if chunks and isinstance(chunks[0], dict):
            chunks = [ChunkRecord(**c) for c in chunks]
        else:
            chunks = LazyChunkList(list(map(tuple, chunks)))
        results = d.get("results")
        return cls(
            scheme=d["scheme"],
            workers=[WorkerMetrics(**w) for w in d["workers"]],
            t_p=d["t_p"],
            chunks=chunks,
            results=(
                None if results is None
                else np.asarray(results, dtype=float)
            ),
            rederivations=d.get("rederivations", 0),
            events=d.get("events", 0),
        )


def imbalance(values: list[float]) -> float:
    """Relative imbalance: ``(max - min) / mean`` (0 = perfectly even).

    Used to check the paper's qualitative claims ("the execution is
    well-balanced, in terms of the computation times" for distributed
    schemes; "not well-balanced" for simple ones on the heterogeneous
    cluster).
    """
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0 or not math.isfinite(mean):
        return 0.0
    return (max(values) - min(values)) / mean
