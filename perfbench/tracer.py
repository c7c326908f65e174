"""Span tracing of the SafeWeb layers, wrapped from outside the program.

The tracer patches public functions of each layer (classes and module
functions under ``repro``) with a wrapper that records one span per call:
``(span id, name, start, end, parent span id, operation id)``. Nothing in
``src/`` changes. The wrappers are installed *before* the deployment is
built, because units and middleware capture bound methods when they
subscribe or install their hooks; recording is then switched on only for
the timed phase, so set-up leaves no spans.

Callbacks of jailed (unprivileged) units are wrapped only after the
engine has scope-isolated them: the wrapper calls the jail's clone, so
the traced callback still runs with its globals snapshot and restricted
builtins. A few functions are only counted (WAL appends and syncs, STOMP
frames); they record no span, so their time stays in their caller's self
time.

Spans stay in memory and are written to a JSON-lines file when the run
ends. A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute or "Class.method", span name). The span name is what
#: the per-layer report aggregates on; several functions may share one.
TRACED = (
    ("repro.web.framework", "SafeWebApp.__call__", "web.app"),
    ("repro.web.middleware", "SafeWebMiddleware.authenticate_request", "web.auth"),
    ("repro.storage.webdb", "WebDatabase.count_privileges", "web.acl"),
    ("repro.web.templates", "TemplateRegistry.render", "web.template"),
    ("repro.storage.docstore", "Database.view", "storage.view"),
    ("repro.storage.docstore", "Database.get", "storage.get"),
    ("repro.storage.docstore", "Database.upsert", "storage.upsert"),
    ("repro.storage.replication", "Replicator.replicate", "storage.replicate"),
    ("repro.taint.json_codec", "decode_document", "taint.decode"),
    ("repro.taint.json_codec", "encode_document", "taint.encode"),
    ("repro.taint.json_codec", "dumps", "taint.dumps"),
    ("repro.events.broker", "Broker.publish", "events.broker"),
    ("repro.events.store", "LabeledStore.get", "events.store_get"),
    ("repro.events.store", "LabeledStore.set", "events.store_set"),
    # Privileged units run unjailed, so their methods are wrapped in place.
    ("repro.mdt.producer", "DataProducer.on_import", "events.callback.data_producer"),
    ("repro.mdt.storage_unit", "DataStorage.on_record", "events.callback.data_storage"),
    ("repro.mdt.storage_unit", "DataStorage.on_mdt_metric", "events.callback.data_storage"),
    ("repro.mdt.storage_unit", "DataStorage.on_region_metric",
     "events.callback.data_storage"),
    ("repro.events.cluster", "ClusterRouter.publish", "cluster.publish"),
    ("repro.events.cluster", "ClusterEngine.drain", "cluster.drain"),
)

#: Handlers of the jailed aggregator (qualified name -> span name), wrapped
#: around the clone ``repro.events.engine.isolate_callback`` returns.
JAILED_CALLBACKS = {
    "DataAggregator.on_report": "events.callback.data_aggregator",
    "DataAggregator.on_aggregate_mdt": "events.callback.data_aggregator",
    "DataAggregator.on_aggregate_region": "events.callback.data_aggregator",
}

#: Header the load generator sets so a request's spans share its id.
OP_HEADER = "x-bench-op"


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[tuple] = []
        #: Bytes appended to write-ahead logs while recording.
        self.wal_bytes = 0
        #: Syncs that found records pending, i.e. issued an fsync.
        self.wal_fsyncs = 0
        #: Rows returned by view queries while recording.
        self.view_rows = 0
        #: Documents shipped by replication passes while recording.
        self.replicated_docs = 0
        #: STOMP frames the cluster's client encoded while recording.
        self.stomp_frames = 0
        #: Operation id for spans outside any HTTP request (a wave).
        self.background_op: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span in TRACED:
            _patch(module_name, path, lambda original, span=span: self._wrap(original, span))
        for module_name, path, counter in COUNTED:
            _patch(module_name, path,
                   lambda original, counter=counter: self._count(original, counter))

        from repro.events import engine

        isolate = engine.isolate_callback

        def isolate_then_trace(handler):
            isolated = isolate(handler)
            func = getattr(handler, "__func__", None)
            span = JAILED_CALLBACKS.get(getattr(func, "__qualname__", ""))
            return isolated if span is None else self._wrap(isolated, span)

        engine.isolate_callback = isolate_then_trace

    def _count(self, original: Callable, counter: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            if tracer.recording:
                counter(tracer, args)
            return original(*args, **kwargs)

        return counted

    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self
        is_app = name == "web.app"

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if is_app:
                local.op = args[1].header(OP_HEADER)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                op = getattr(local, "op", None) or tracer.background_op
                tracer.spans.append((span_id, name, started, ended, parent, op))
                if is_app:
                    local.op = None
            if name == "storage.view":
                tracer.view_rows += len(result)
            elif name == "storage.replicate":
                tracer.replicated_docs += result.docs_written
            return result

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and summed self time in seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, name, start, end, _parent, _op in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _patch(module_name: str, path: str, wrap: Callable) -> None:
    """Replace a module function or ``Class.method`` by ``wrap(original)``."""
    import importlib

    owner: Any = importlib.import_module(module_name)
    attr = path
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))


def _count_wal_append(tracer: Tracer, args: tuple) -> None:
    tracer.wal_bytes += len(args[1]) + 8  # payload plus the length/CRC frame


def _count_wal_sync(tracer: Tracer, args: tuple) -> None:
    writer = args[0]
    if writer.appended != writer.durable:
        tracer.wal_fsyncs += 1


def _count_stomp_frame(tracer: Tracer, args: tuple) -> None:
    tracer.stomp_frames += 1


#: (module, attribute or "Class.method", counter): counted, never timed.
COUNTED = (
    ("repro.storage.wal", "WalWriter.append", _count_wal_append),
    ("repro.storage.wal", "WalWriter.sync", _count_wal_sync),
    ("repro.events.stomp.client", "encode_frame", _count_stomp_frame),
)
