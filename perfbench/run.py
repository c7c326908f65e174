#!/usr/bin/env python3
"""End-to-end benchmark of the MDT deployment (page generation, registry
refresh and cluster import), with a traced run for per-layer timings.

    python3 perfbench/run.py --workload portal_pages --seed 1 --seconds 12 --trace 0

Each run starts the system under test (``perfbench/sut.py``, one
``MdtDeployment`` behind ``HttpServer`` on loopback) as a child process,
several times: every start is one *round*, and set-up time is the median
over rounds. This process is the load generator. It sends page requests
over one keep-alive connection in a closed loop (the next request leaves
when the previous reply has arrived) and never while the system ingests.
Every response and every registry wave is checked by ``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. In a traced run
only the last round is traced; the rounds before it give the untraced
figures the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import base64
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import Portal, check_registry, same_documents  # noqa: E402
from inputs import CaseFactory, Directory, page_block, refresh_burst  # noqa: E402
from layers import median_over_rounds, per_layer_metrics  # noqa: E402
from tracer import OP_HEADER  # noqa: E402

#: Scratch space inside the checkout: durable stores and span files.
OUT = os.path.join(ROOT, ".perfbench")

#: Whole run must end well within the 180 s a run is allowed.
DEADLINE_S = 170

WORKLOADS = {
    # Page generation on every request: warm DMZ, cached credentials, no
    # page cache. Event layers idle during the timed phase.
    "portal_pages": {
        "config": {"num_regions": 4, "mdts_per_region": 4, "patients_per_mdt": 40},
        "deployment": {"cached_auth": True, "page_cache": False},
        "rounds": 5,
    },
    # Writes next to reads on a durable store with the page cache on.
    "registry_refresh": {
        "config": {"num_regions": 4, "mdts_per_region": 4, "patients_per_mdt": 25},
        "deployment": {"cached_auth": True, "page_cache": True},
        "rounds": 3,
        # Chosen, not measured (no update rate is recorded anywhere): one
        # new case per MDT keeps a wave near 1 s, so a 30 s run holds 15.
        "cases_per_mdt": 1,
    },
    # The aggregator offloaded to one cluster worker behind one broker shard.
    "registry_import_cluster": {
        "config": {"num_regions": 2, "mdts_per_region": 2, "patients_per_mdt": 40},
        "deployment": {"cached_auth": True, "page_cache": False,
                       "cluster_workers": 1, "cluster_shards": 1},
        "blocks_after_pass": 12,
    },
}

#: Planned seconds of timed work per registry_refresh wave (with its burst)
#: and per cluster round (pass plus reads); they turn --seconds into a
#: fixed number of waves and passes.
WAVE_PLAN_S = 2.0
PASS_PLAN_S = 7.5


class BenchError(Exception):
    """The run cannot produce a result."""


# -- the system under test ------------------------------------------------------------


class SutProcess:
    """One started system under test, driven over its stdin/stdout."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # One string-hash seed for every system under test, so dict and
        # set layouts do not differ from run to run.
        env["PYTHONHASHSEED"] = "0"
        # Keep multiprocessing's temporary directory (the cluster's
        # forkserver socket) inside the checkout, unless the path would
        # push that socket past the 107-byte AF_UNIX limit.
        tmp = os.path.join(OUT, "tmp")
        if len(tmp) <= 60:
            os.makedirs(tmp, exist_ok=True)
            env["TMPDIR"] = tmp
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.pids: List[int] = [self.proc.pid]

    def call(self, cmd: str, **args):
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"system under test exited during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"system under test failed {cmd!r}:\n{reply['error']}")
        return reply["ok"]

    def usage(self) -> dict:
        usage = self.call("usage")
        self.pids = sorted(set(self.pids) | set(usage["pids"]))
        return usage

    def close(self) -> None:
        """Stop the deployment and wait until every process it started is gone."""
        if self.proc.poll() is None:
            try:
                self.call("stop")
            except (BenchError, OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        _end_processes(self.pids, self.proc.pid)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def _end_processes(pids: List[int], group: int) -> None:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive:
            return
        time.sleep(0.05)
    try:
        os.killpg(group, signal.SIGKILL)
    except OSError:
        pass
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while any(_alive(pid) for pid in pids):
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie of ours counts as ended once reaped)."""
    try:
        if os.waitpid(pid, os.WNOHANG) != (0, 0):
            return False
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# -- the load generator -------------------------------------------------------------------


class PageClient:
    """Closed-loop page requests over one keep-alive HTTP connection."""

    def __init__(self, port: int, passwords: Dict[str, str], traced: bool):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.auth = {
            username[3:]: "Basic " + base64.b64encode(f"{username}:{password}".encode()).decode()
            for username, password in passwords.items()
        }
        self.traced = traced
        self.latencies: List[float] = []
        self.read_s = 0.0
        self.requests = 0
        self.errors = 0
        #: (user, path, status, body) -> times seen, checked after the phase.
        self.responses: Dict[tuple, int] = {}

    def get(self, user: str, path: str) -> None:
        headers = {"Authorization": self.auth[user]}
        if self.traced:
            headers[OP_HEADER] = f"r{self.requests}"
        self.requests += 1
        started = time.perf_counter()
        try:
            self.connection.request("GET", path, headers=headers)
            response = self.connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.errors += 1
            self.connection.close()
            return
        self.latencies.append(time.perf_counter() - started)
        key = (user, path, response.status, body)
        self.responses[key] = self.responses.get(key, 0) + 1

    def run(self, requests) -> None:
        started = time.perf_counter()
        for user, path in requests:
            self.get(user, path)
        self.read_s += time.perf_counter() - started

    def restart_counts(self) -> None:
        """Forget warm-up requests: only timed ones count."""
        self.latencies, self.read_s, self.requests = [], 0.0, 0

    def check(self, portal: Portal, problems: List[str]) -> None:
        for (user, path, status, body), _count in self.responses.items():
            problems.extend(f"access: {p}" for p in portal.check(user, path, status, body))
        self.responses = {}

    def close(self) -> None:
        self.connection.close()


# -- one run ------------------------------------------------------------------------------


class Run:
    """Figures gathered over the rounds of one run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: List[float] = []
        self.rss_mb: List[float] = []
        #: Case events published and seconds until the engine settled.
        self.ingested = [0, 0.0]
        #: Page latencies per round, untraced and traced rounds apart.
        self.latencies: List[List[List[float]]] = [[], []]
        self.read: List[List[float]] = [[0.0, 0], [0.0, 0]]
        #: Wave (or pass) times, untraced and traced apart.
        self.refresh_s: List[List[float]] = [[], []]
        self.cpu: List[dict] = []
        self.layers: Optional[dict] = None
        #: Timed waves or passes, [untraced, traced].
        self.waves = [0, 0]

    # -- helpers shared by the workloads -----------------------------------------------

    def start(self, traced: bool, data_dir: Optional[str] = None, load: bool = True):
        started = time.perf_counter()
        sut = SutProcess()
        try:
            info = sut.call("setup", spec={
                "config": {**self.spec["config"], "seed": self.seed},
                "deployment": self.spec["deployment"],
                "data_dir": data_dir,
                "trace": traced,
                "load": load,
            })
        except BaseException:
            sut.close()
            raise
        client = PageClient(info["port"], info["passwords"], traced)
        return sut, client, info, started

    def record_wave(self, result: dict, traced: bool, timed: bool = True) -> None:
        self.refresh_s[traced].append(result["refresh_s"])
        self.ingested[0] += result["events"]
        self.ingested[1] += result["import_s"]
        self.waves[traced] += timed

    def record_reads(self, client: PageClient, traced: bool) -> None:
        self.latencies[traced].append(client.latencies)
        self.read[traced][0] += client.read_s
        self.read[traced][1] += len(client.latencies)
        self.attempted += client.requests
        self.failed += client.errors

    def measure(self, sut: SutProcess, traced: bool, phase) -> None:
        """Run one timed phase: with span recording in a traced round,
        with CPU accounting in an untraced one."""
        before = sut.usage()
        if traced:
            sut.call("trace", on=True)
        started = time.perf_counter()
        phase()
        wall = time.perf_counter() - started
        if traced:
            sut.call("trace", on=False)
        after = sut.usage()
        self.rss_mb.append(after["rss_mb"])
        if not traced:
            self.cpu.append({"cpu_s": after["cpu_s"] - before["cpu_s"], "wall_s": wall})

    def collect_layers(self, sut: SutProcess) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.layers = sut.call(
            "layers", spans_path=os.path.join(OUT, f"spans-{self.workload}.jsonl")
        )

    def traced_round(self, index: int, rounds: int) -> bool:
        return self.trace and index == rounds - 1

    # -- results -----------------------------------------------------------------------------

    def end_to_end(self) -> dict:
        rounds = self.latencies[0]
        if min(len(latencies) for latencies in rounds) < 1000:
            raise BenchError("a round has fewer than 1000 page requests")
        read_s, pages = self.read[0]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "pages_per_s": (pages / read_s, "1/s"),
            "page_p50_ms": (median_over_rounds(rounds, 50), "ms"),
            "page_p90_ms": (median_over_rounds(rounds, 90), "ms"),
            "ingest_events_per_s": (self.ingested[0] / self.ingested[1], "1/s"),
            "refresh_s": (statistics.median(self.refresh_s[0]), "s"),
            "sut_rss_mb": (max(self.rss_mb), "MB"),
        }

    def per_layer(self) -> dict:
        return per_layer_metrics(self)


# -- the workloads ---------------------------------------------------------------------------


def portal_pages(run: Run) -> None:
    rng = random.Random(run.seed)
    rounds = run.spec["rounds"]
    for index in range(rounds):
        traced = run.traced_round(index, rounds)
        sut, client, info, started = run.start(traced)
        try:
            dump = sut.call("dump")
            directory = Directory(dump["main_db"])
            # Warm the DMZ's decoded documents and the credential cache.
            client.run([(user, "/") for user in directory.mdts])
            client.run(page_block(directory, rng))
            run.setup_s.append(time.perf_counter() - started)
            run.record_wave(info["load"], traced, timed=False)
            client.restart_counts()

            def phase():
                deadline = time.perf_counter() + run.seconds / rounds
                while time.perf_counter() < deadline:
                    client.run(page_block(directory, rng))

            run.measure(sut, traced, phase)
            run.record_reads(client, traced)
            client.check(Portal(dump), run.problems)
            if traced:
                run.collect_layers(sut)
        finally:
            client.close()
            sut.close()


def registry_refresh(run: Run) -> None:
    rng = random.Random(run.seed)
    rounds = run.spec["rounds"]
    waves = max(1, round(run.seconds / rounds / WAVE_PLAN_S))
    for index in range(rounds):
        traced = run.traced_round(index, rounds)
        data_dir = os.path.join(OUT, f"data-{os.getpid()}-{index}")
        sut, client, info, started = run.start(traced, data_dir=data_dir)
        try:
            dump = sut.call("dump")
            directory = Directory(dump["main_db"])
            client.run(sorted(set(refresh_burst(directory, rng))))
            run.setup_s.append(time.perf_counter() - started)
            client.restart_counts()
            client.check(Portal(dump), run.problems)
            imports = {p["patient_id"]: 1 for p in dump["main_db"]["patients"]}
            _registry_verdict(run, dump, imports, initial=True)
            factory = CaseFactory(dump["main_db"], rng)
            for wave in range(waves):
                rows = factory.batch(run.spec["cases_per_mdt"])
                for patient_id in imports:
                    imports[patient_id] += 1
                imports.update({p["patient_id"]: 1 for p in rows["patients"]})
                result = {}

                def ingest():
                    result.update(sut.call("wave", rows=rows, op=f"w{index}.{wave}"))

                run.measure(sut, traced, ingest)
                run.record_wave(result, traced)
                dump = sut.call("dump")
                _registry_verdict(run, dump, imports)
                burst = refresh_burst(directory, rng)
                run.measure(sut, traced, lambda: client.run(burst))
                client.check(Portal(dump), run.problems)
            run.record_reads(client, traced)
            if traced:
                run.collect_layers(sut)
        finally:
            client.close()
            sut.close()


def registry_import_cluster(run: Run) -> None:
    rng = random.Random(run.seed)
    rounds = max(2, round(run.seconds / PASS_PLAN_S))
    for index in range(rounds):
        traced = run.traced_round(index, rounds)
        sut, client, info, started = run.start(traced, load=False)
        try:
            run.setup_s.append(time.perf_counter() - started)
            client.restart_counts()
            result = {}

            def ingest():
                result.update(sut.call("wave", rows=None, op=f"w{index}"))

            run.measure(sut, traced, ingest)
            run.record_wave(result, traced)
            dump = sut.call("dump")
            imports = {p["patient_id"]: 1 for p in dump["main_db"]["patients"]}
            _registry_verdict(run, dump, imports)
            sut.call("stop_cluster")
            directory = Directory(dump["main_db"])
            client.run([(user, "/") for user in directory.mdts])
            client.restart_counts()
            blocks = [page_block(directory, rng) for _ in range(run.spec["blocks_after_pass"])]
            run.measure(sut, traced, lambda: [client.run(block) for block in blocks])
            run.record_reads(client, traced)
            client.check(Portal(dump), run.problems)
            if traced:
                run.collect_layers(sut)
            if index == 0:
                # After the round's last usage() and timed read, so the
                # in-process reference build enters neither.
                reference = sut.call("reference")
                run.problems.extend(
                    f"registry: cluster and in-process DMZ differ: {problem}"
                    for problem in same_documents(dump["dmz"], reference["dmz"])
                )
        finally:
            client.close()
            sut.close()


def _registry_verdict(run: Run, dump: dict, imports: Dict[str, int], initial=False) -> None:
    """Check the DMZ after a wave. A wave whose only fault is the known
    repeated-tumour fault of ``DataAggregator.on_report`` counts as
    failed; any other disagreement makes the run incorrect."""
    problems, repeated = check_registry(dump, imports)
    run.problems.extend(f"registry: {problem}" for problem in problems)
    if initial:
        if repeated:
            run.problems.append("registry: initial load repeated tumours")
        return
    run.attempted += 1
    if repeated:
        run.failed += 1


RUNNERS = {
    "portal_pages": portal_pages,
    "registry_refresh": registry_refresh,
    "registry_import_cluster": registry_import_cluster,
}


def execute(workload: str, seed: int, seconds: int, trace: bool,
            deployment: Optional[dict] = None) -> Run:
    """Run one workload; *deployment* overrides deployment settings (the
    negative controls use it to switch a vulnerability on)."""
    run = Run(workload, seed, seconds, trace)
    if deployment:
        run.spec = {**run.spec, "deployment": {**run.spec["deployment"], **deployment}}
    RUNNERS[workload](run)
    return run


def result_line(run: Run) -> dict:
    metrics = run.per_layer() if run.trace else run.end_to_end()
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(run)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for problem in run.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
