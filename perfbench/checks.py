"""Correctness checks computed apart from the program.

Nothing here imports ``repro``. The expected DMZ contents are recomputed
from the main database with the portal's documented rules (one record
per patient, first non-empty value per field in registry order, the
completeness and survival formulas of ``repro.mdt.metrics``' docstrings,
the label vocabulary of ``repro.mdt.labels``), and the expected HTTP
status of every page request follows the access policy as stated: own
records only, MDT metrics within the region, regional aggregates for
everyone.
"""

from __future__ import annotations

import html
import json
import math
import re
from typing import Dict, List, Optional, Tuple

from inputs import Directory

MDT_LABEL = "label:conf:ecric.org.uk/mdt/{}"
MDT_AGGREGATE_LABEL = "label:conf:ecric.org.uk/mdt_agg/{}"
REGION_AGGREGATE_LABEL = "label:conf:ecric.org.uk/region_agg/{}"

#: Record fields that carry the owning MDT's label in the DMZ.
SENSITIVE_FIELDS = (
    "patient_id", "patient_name", "date_of_birth", "nhs_number", "site", "stage",
    "diagnosis_date", "treatments", "outcomes", "source_patients",
)
#: Fields counted by the completeness metric.
COMPLETENESS_FIELDS = (
    "patient_name", "date_of_birth", "nhs_number", "site", "stage", "diagnosis_date",
)
#: Five-year survival projection by stage at diagnosis (%).
SURVIVAL_BY_STAGE = {"1": 92.0, "2": 78.0, "3": 51.0, "4": 22.0}

PATIENT_ID = re.compile(r"p\d{5}")
FRONT_ROW = re.compile(
    r"<tr>\n<td>(.*?)</td>\n<td>(.*?)</td>\n<td>(.*?)</td>\n<td>(.*?)</td>\n</tr>"
)


# -- expected registry ------------------------------------------------------------


def expected_registry(main_db: dict) -> dict:
    """The DMZ contents the main database implies, in plain values."""
    records: Dict[str, dict] = {}
    by_mdt: Dict[str, List[dict]] = {}
    region_of: Dict[str, str] = {}
    for patient in main_db["patients"]:
        record = {
            "type": "record",
            "mid": patient["mdt_id"],
            "hospital": patient["hospital"],
            "region": patient["region"],
            "tumour_count": str(len(patient["tumours"])),
            "patient_id": patient["patient_id"],
            "patient_name": patient["name"],
            "date_of_birth": patient["date_of_birth"],
            "nhs_number": patient["nhs_number"],
            "source_patients": f"{patient['patient_id']}={patient['name']}",
        }
        for field in ("site", "stage", "diagnosis_date", "treatments", "outcomes"):
            record[field] = ""
        for tumour in patient["tumours"]:
            case = {
                "site": tumour["site"],
                "stage": tumour["stage"],
                "diagnosis_date": tumour["diagnosis_date"],
                "treatments": ";".join(t["kind"] for t in tumour["treatments"]),
                "outcomes": ";".join(t["outcome"] or "" for t in tumour["treatments"]),
            }
            for field, value in case.items():
                if not record[field]:
                    record[field] = value
        records[patient["patient_id"]] = record
        by_mdt.setdefault(patient["mdt_id"], []).append(record)
        region_of[patient["mdt_id"]] = patient["region"]
    metrics = {mdt: _mdt_metric(rows) for mdt, rows in by_mdt.items()}
    regions: Dict[str, dict] = {}
    for region in sorted(set(region_of.values())):
        members = [metrics[mdt] for mdt in metrics if region_of[mdt] == region]
        regions[region] = {
            "mdt_count": len(members),
            "completeness": _mean([m["completeness"] for m in members]),
            "survival": _mean([m["survival"] for m in members]),
        }
    return {"records": records, "metrics": metrics, "regions": regions}


def _mdt_metric(records: List[dict]) -> dict:
    filled = sum(1 for r in records for f in COMPLETENESS_FIELDS if r[f] != "")
    staged = [SURVIVAL_BY_STAGE[r["stage"]] for r in records if r["stage"] in SURVIVAL_BY_STAGE]
    return {
        "record_count": len(records),
        "completeness": filled / (len(records) * len(COMPLETENESS_FIELDS)) * 100,
        "survival": _mean(staged),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _same_number(text: str, expected: float) -> bool:
    try:
        return math.isclose(float(text), expected, rel_tol=1e-9, abs_tol=1e-9)
    except (TypeError, ValueError):
        return False


# -- the registry check -----------------------------------------------------------


def check_registry(dump: dict, imports: Dict[str, int]) -> Tuple[List[str], int]:
    """Compare the DMZ replica with the main database.

    *imports* maps each patient id to the number of import passes that
    have read it. Returns ``(problems, repeated)``: *problems* lists every
    disagreement except one, and *repeated* counts records whose only
    disagreement is the known aggregator fault: ``tumour_count`` equal to
    the true count times the number of imports, because each re-import
    appends every tumour again.
    """
    expected = expected_registry(dump["main_db"])
    problems: List[str] = []
    repeated = 0
    seen_records: Dict[str, str] = {}
    seen_metrics: Dict[str, Tuple[dict, dict]] = {}
    seen_regions: Dict[str, Tuple[dict, dict]] = {}
    for doc_id, (body, sidecar, _rev) in dump["dmz"].items():
        kind = body.get("type")
        if kind == "record":
            patient_id = body.get("patient_id", "")
            if patient_id in seen_records:
                problems.append(f"{doc_id}: second record for patient {patient_id}")
                continue
            seen_records[patient_id] = doc_id
            want = expected["records"].get(patient_id)
            if want is None:
                problems.append(f"{doc_id}: record of unknown patient {patient_id!r}")
                continue
            wrong = sorted(f for f in set(want) | set(body) if body.get(f) != want.get(f))
            if wrong == ["tumour_count"] and body["tumour_count"] == str(
                int(want["tumour_count"]) * imports.get(patient_id, 1)
            ) and imports.get(patient_id, 1) > 1:
                repeated += 1
            elif wrong:
                problems.append(
                    f"{doc_id}: fields {wrong} differ: "
                    + ", ".join(f"{f}={body.get(f)!r} (want {want.get(f)!r})" for f in wrong)
                )
            label = [MDT_LABEL.format(want["mid"])]
            want_sidecar = {f"/{field}": label for field in SENSITIVE_FIELDS}
            if sidecar != want_sidecar:
                problems.append(f"{doc_id}: labels {sidecar} are not exactly {label}")
        elif kind == "mdt_metric":
            seen_metrics[body.get("metric_mid", "")] = (body, sidecar)
        elif kind == "region_metric":
            seen_regions[body.get("metric_region", "")] = (body, sidecar)
        else:
            problems.append(f"{doc_id}: unexpected document type {kind!r}")
    missing = sorted(set(expected["records"]) - set(seen_records))
    if missing:
        problems.append(f"no DMZ record for {len(missing)} patients, e.g. {missing[:3]}")
    for mdt, want in expected["metrics"].items():
        if mdt not in seen_metrics:
            problems.append(f"no metric document for MDT {mdt}")
            continue
        body, sidecar = seen_metrics[mdt]
        label = [MDT_AGGREGATE_LABEL.format(mdt)]
        problems.extend(
            _metric_problems(f"MDT {mdt}", body, sidecar, label,
                             ("record_count", want["record_count"]), want)
        )
    for region, want in expected["regions"].items():
        if region not in seen_regions:
            problems.append(f"no metric document for {region}")
            continue
        body, sidecar = seen_regions[region]
        label = [REGION_AGGREGATE_LABEL.format(region)]
        problems.extend(
            _metric_problems(region, body, sidecar, label, ("mdt_count", want["mdt_count"]), want)
        )
    extra = (set(seen_metrics) - set(expected["metrics"])) | (
        set(seen_regions) - set(expected["regions"])
    )
    if extra:
        problems.append(f"metric documents for unknown MDTs or regions: {sorted(extra)}")
    return problems, repeated


def _metric_problems(what, body, sidecar, label, count, want) -> List[str]:
    problems = []
    if body.get(count[0]) != str(count[1]):
        problems.append(f"{what}: {count[0]} {body.get(count[0])!r}, want {count[1]}")
    for field in ("completeness", "survival"):
        if not _same_number(body.get(field), want[field]):
            problems.append(f"{what}: {field} {body.get(field)!r}, want {want[field]!r}")
    if sidecar != {"/completeness": label, "/survival": label}:
        problems.append(f"{what}: labels {sidecar} are not exactly {label}")
    return problems


def same_documents(left: dict, right: dict) -> List[str]:
    """Differences between two DMZ dumps, comparing bodies and labels only
    (revision ids depend on the order of intermediate writes)."""
    problems = []
    for doc_id in sorted(set(left) | set(right)):
        if doc_id not in left or doc_id not in right:
            problems.append(f"{doc_id}: present in only one deployment")
        elif left[doc_id][:2] != right[doc_id][:2]:
            problems.append(f"{doc_id}: body or labels differ")
    return problems


# -- the access check -------------------------------------------------------------


class Portal:
    """What every page must show, from one DMZ snapshot."""

    def __init__(self, dump: dict):
        self.directory = Directory(dump["main_db"])
        self.patients_of: Dict[str, set] = {}
        for patient in dump["main_db"]["patients"]:
            self.patients_of.setdefault(patient["mdt_id"], set()).add(patient["patient_id"])
        self.records: Dict[str, List[dict]] = {}
        self.metrics: Dict[str, dict] = {}
        self.regions: Dict[str, dict] = {}
        for doc_id, (body, _sidecar, rev) in dump["dmz"].items():
            document = {**body, "_id": doc_id, "_rev": rev}
            if body["type"] == "record":
                self.records.setdefault(body["mid"], []).append(document)
            elif body["type"] == "mdt_metric":
                self.metrics[body["metric_mid"]] = document
            elif body["type"] == "region_metric":
                self.regions[body["metric_region"]] = document
        for rows in self.records.values():
            rows.sort(key=lambda record: record["patient_id"])

    def expected_status(self, user: str, path: str) -> int:
        parts = path.strip("/").split("/")
        if path == "/" or parts[0] == "region":
            return 200
        target = parts[1]
        if parts[0] == "records":
            return 200 if target == user else 403
        region_of = self.directory.region_of
        return 200 if region_of[target] == region_of[user] else 403

    def check(self, user: str, path: str, status: int, body: bytes) -> List[str]:
        """Problems with one response (an empty list when it is right)."""
        want = self.expected_status(user, path)
        where = f"GET {path} as MDT {user}"
        if status != want:
            return [f"{where}: status {status}, want {want}"]
        text = body.decode("utf-8")
        foreign = set(PATIENT_ID.findall(text)) - self.patients_of[user]
        if foreign:
            return [f"{where}: shows other MDTs' patients {sorted(foreign)[:3]}"]
        if status != 200:
            return []
        parts = path.strip("/").split("/")
        if path == "/":
            return self._front_page(where, user, text)
        if parts[0] == "compare":
            return self._compare_page(where, parts[1], text)
        document: Optional[object]
        if parts[0] == "records":
            document = self.records.get(parts[1], [])
        elif parts[0] == "metrics":
            document = self.metrics.get(parts[1])
        else:
            document = self.regions.get(parts[1])
        if json.loads(text) != document:
            return [f"{where}: body disagrees with the DMZ replica"]
        return []

    def _front_page(self, where: str, mdt: str, text: str) -> List[str]:
        metric = self.metrics[mdt]
        expected_rows = sorted(
            tuple(html.escape(str(r[f])) for f in ("patient_name", "site", "stage", "tumour_count"))
            for r in self.records.get(mdt, [])
        )
        heading = f"<h1>MDT {mdt} &mdash; {html.escape(self.directory.hospital_of[mdt])} ("
        figures = (
            f"<p>Records: {metric['record_count']}</p>",
            f"<p>Completeness: {metric['completeness']}%</p>",
            f"<p>Projected survival: {metric['survival']}%</p>",
        )
        if heading not in text or any(figure not in text for figure in figures):
            return [f"{where}: heading or figures disagree with the DMZ replica"]
        if sorted(FRONT_ROW.findall(text)) != expected_rows:
            return [f"{where}: patient table disagrees with the DMZ replica"]
        return []

    def _compare_page(self, where: str, mdt: str, text: str) -> List[str]:
        metric = self.metrics[mdt]
        region = self.regions[self.directory.region_of[mdt]]
        rows = (
            f"<tr><td>Completeness</td><td>{metric['completeness']}%</td>"
            f"<td>{region['completeness']}%</td></tr>",
            f"<tr><td>Survival</td><td>{metric['survival']}%</td>"
            f"<td>{region['survival']}%</td></tr>",
        )
        if any(row not in text for row in rows):
            return [f"{where}: figures disagree with the DMZ replica"]
        return []
