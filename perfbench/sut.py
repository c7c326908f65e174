"""The system under test: one ``MdtDeployment`` served over loopback HTTP.

``run.py`` starts this file as a child process and drives it with one
JSON command per line on stdin; every reply is one JSON line on the
original stdout (anything the program itself prints goes to stderr).
Commands:

* ``setup`` builds the deployment, runs the initial import → aggregate →
  replicate wave (unless told not to) and starts ``HttpServer`` on an
  ephemeral loopback port;
* ``wave`` inserts a batch of new cases through ``MainDatabase.insert_*``
  and runs one import → aggregate → replicate wave;
* ``dump`` returns the main database and the DMZ replica's stored
  documents (plain body plus label sidecar) for the independent checks;
* ``stop_cluster`` ends the cluster's processes once its pass is done;
* ``reference`` builds an in-process deployment of the same registry and
  returns its DMZ documents (the cluster equivalence check);
* ``usage`` returns CPU seconds and peak RSS summed over this process and
  its descendants (cluster brokers and workers);
* ``trace`` / ``layers`` switch span recording on and collect the
  per-layer report (only when ``setup`` asked for tracing);
* ``stop`` shuts everything down and exits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from collections import defaultdict
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


class Sut:
    """One deployment and its server; each protocol command is a method."""

    def __init__(self) -> None:
        self.deployment = None
        self.server = None
        self.tracer = None
        self.spec: dict = {}
        self._baseline: dict = {}

    # -- lifecycle ---------------------------------------------------------------

    def setup(self, spec: dict) -> dict:
        self.spec = spec
        if spec.get("trace"):
            from tracer import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        from repro.mdt.deployment import MdtDeployment
        from repro.mdt.workload import WorkloadConfig
        from repro.web.http import HttpServer

        self.deployment = MdtDeployment(
            config=WorkloadConfig(**spec["config"]),
            data_dir=spec.get("data_dir"),
            **spec.get("deployment", {}),
        )
        load = self._wave() if spec.get("load", True) else None
        # One keep-alive connection carries the whole run, so the
        # per-connection request cap and idle timeout must not end it
        # (waves leave the connection idle for seconds).
        self.server = HttpServer(
            self.deployment.portal,
            workers=2,
            keep_alive_timeout=600.0,
            max_requests_per_connection=10**9,
        ).start()
        return {
            "port": self.server.address[1],
            "load": load,
            "passwords": self.deployment.workload.user_passwords,
        }

    def stop(self) -> dict:
        if self.server is not None:
            self.server.stop()
        if self.deployment is not None:
            self.deployment.close()
        if self.spec.get("data_dir"):
            shutil.rmtree(self.spec["data_dir"], ignore_errors=True)
        return {}

    # -- ingestion ------------------------------------------------------------------

    def wave(self, rows: Optional[dict], op: str) -> dict:
        from repro.storage.maindb import Patient, Treatment, Tumour

        main_db = self.deployment.main_db
        for table, row_type, insert in (
            ("patients", Patient, main_db.insert_patient),
            ("tumours", Tumour, main_db.insert_tumour),
            ("treatments", Treatment, main_db.insert_treatment),
        ):
            for fields in (rows or {}).get(table, ()):
                insert(row_type(**fields))
        if self.tracer is not None:
            self.tracer.background_op = op
        try:
            return self._wave()
        finally:
            if self.tracer is not None:
                self.tracer.background_op = None

    def _wave(self) -> dict:
        deployment = self.deployment
        published = deployment.producer.events_published
        started = time.perf_counter()
        deployment.import_data()
        imported = time.perf_counter()
        deployment.aggregate()
        aggregated = time.perf_counter()
        deployment.replicate()
        replicated = time.perf_counter()
        return {
            "events": deployment.producer.events_published - published,
            "import_s": imported - started,
            "aggregate_s": aggregated - imported,
            "replicate_s": replicated - aggregated,
            "refresh_s": replicated - started,
        }

    def stop_cluster(self) -> dict:
        """End the cluster's broker and worker processes after the pass, so
        the page reads that follow do not share the cores with their idle
        STOMP pollers."""
        cluster, self.deployment.cluster = self.deployment.cluster, None
        cluster.stop()
        return {}

    # -- outputs for the checks -------------------------------------------------------

    def dump(self) -> dict:
        return {"main_db": dump_main_db(self.deployment.main_db),
                "dmz": dump_database(self.deployment.dmz_db)}

    def reference(self) -> dict:
        from repro.mdt.deployment import MdtDeployment
        from repro.mdt.workload import WorkloadConfig

        options = dict(self.spec.get("deployment", {}))
        options.pop("cluster_workers", None)
        options.pop("cluster_shards", None)
        reference = MdtDeployment(config=WorkloadConfig(**self.spec["config"]), **options)
        reference.run_pipeline()
        return {"dmz": dump_database(reference.dmz_db)}

    # -- measurement -------------------------------------------------------------------

    def usage(self) -> dict:
        return process_usage(os.getpid())

    def trace(self, on: bool) -> dict:
        """Switch span recording; counters are taken from the first switch-on."""
        if on and not self._baseline:
            deployment = self.deployment
            cache = deployment.portal.page_cache
            self._baseline = {
                "cache": cache.stats() if cache is not None else {},
                "audit": deployment.audit.total_decisions(),
                "events": deployment.producer.events_published,
            }
        self.tracer.recording = on
        return {}

    def layers(self, spans_path: str) -> dict:
        tracer = self.tracer
        tracer.recording = False
        deployment = self.deployment
        cache = deployment.portal.page_cache
        stats = cache.stats() if cache is not None else {}
        before = self._baseline["cache"]
        tracer.write(spans_path)
        return {
            "self_times": tracer.self_times(),
            "wal_bytes": tracer.wal_bytes,
            "wal_fsyncs": tracer.wal_fsyncs,
            "view_rows": tracer.view_rows,
            "replicated_docs": tracer.replicated_docs,
            "stomp_frames": tracer.stomp_frames,
            "cache_hits": stats.get("hits", 0) - before.get("hits", 0),
            "cache_misses": stats.get("misses", 0) - before.get("misses", 0),
            "cache_invalidations": (
                stats.get("invalidations", 0) - before.get("invalidations", 0)
            ),
            "audit_records": deployment.audit.total_decisions() - self._baseline["audit"],
            "events": deployment.producer.events_published - self._baseline["events"],
        }


def dump_main_db(main_db) -> dict:
    """Patients, tumours and treatments in the order the registry holds them."""
    patients = []
    for patient in main_db.patients():
        tumours = []
        for tumour in main_db.tumours_for(patient.patient_id):
            treatments = [vars(t) for t in main_db.treatments_for(tumour.tumour_id)]
            tumours.append({**vars(tumour), "treatments": treatments})
        patients.append({**vars(patient), "tumours": tumours})
    return {"patients": patients}


def dump_database(database) -> dict:
    """doc id → [plain body, label sidecar] as stored (labels as URIs)."""
    documents = {}
    for doc_id in database.all_doc_ids():
        stored = database.raw_document(doc_id)
        documents[doc_id] = [stored.body, stored.sidecar, stored.rev]
    return documents


def process_usage(root: int) -> dict:
    """CPU seconds and summed peak RSS of *root* and all its descendants."""
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children[int(fields[1])].append(int(entry))
    tree = [root]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = 0.0
    rss_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                status = handle.read()
        except OSError:
            continue  # exited between the scan and the read
        cpu_s += (int(fields[11]) + int(fields[12])) / ticks
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                rss_kb += int(line.split()[1])
    return {"cpu_s": cpu_s, "rss_mb": rss_kb / 1024.0, "pids": tree}


def serve(commands, replies) -> None:
    sut = Sut()
    for line in commands:
        message = json.loads(line)
        command = message.pop("cmd")
        try:
            result = getattr(sut, command)(**message)
            reply = {"ok": result}
        except Exception:  # noqa: BLE001 - reported to the driver, which fails the run
            reply = {"error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if command == "stop":
            return


if __name__ == "__main__":
    # Replies use the original stdout; stray prints from the program go
    # to stderr so they cannot corrupt the protocol.
    protocol = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    serve(sys.stdin, protocol)
