"""Seeded inputs: registry sizes, page-request mixes and wave batches.

Everything a run feeds the system derives from ``--seed`` through
``random.Random``; the same seed gives the same registry, the same
request order and the same added cases. Mixes have a fixed make-up per
block (exact counts per route), so seeds change which users and targets
appear and in what order, never the share of each route.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: Requests per portal block and how many of each kind. Kinds starting
#: with ``deny_`` must be refused by the policy (403). The shares are
#: chosen, not measured: neither the paper nor the repository records a
#: request mix. Front page and own records take three quarters because
#: they are the reads the paper's E1 and the roadmap's mixed load name;
#: the other routes get 5 each so every handler runs; 10 refusals so every
#: deny path runs on every block. See perfbench/README.md, "Input make-up".
PAGE_BLOCK = (
    ("front", 50),
    ("records", 25),
    ("metrics", 5),
    ("compare", 5),
    ("region", 5),
    ("deny_records", 4),
    ("deny_metrics", 3),
    ("deny_compare", 3),
)

#: Per user and wave in registry_refresh: the user's working set of pages
#: and how often each is read. Chosen, not measured: the repeats are set
#: so that both page-cache hits and the misses after a wave's
#: invalidation are frequent. The first read of each page misses and the
#: rest hit, so a burst is 1/7 regenerated front and records pages, 1/7
#: regenerated metric pages and 5/7 hits.
REFRESH_BURST = (
    ("front", 3),
    ("records", 3),
    ("metrics_own", 4),
    ("region_own", 4),
)

_FIRST = ["Ada", "Bruno", "Chloe", "Dmitri", "Esme", "Fergus", "Gita", "Hugo",
          "Ines", "Jonas", "Keira", "Luca", "Mina", "Nils", "Orla", "Pavel"]
_LAST = ["Abbott", "Baker", "Carter", "Dixon", "Ellis", "Fraser", "Gill", "Hart",
         "Irving", "Joyce", "Kerr", "Lowe", "Moss", "Nash", "Oakes", "Price"]
_SITES = ["breast", "lung", "colorectal", "prostate", "ovarian", "skin"]
_KINDS = ["surgery", "chemotherapy", "radiotherapy", "hormone", "immunotherapy"]
_OUTCOMES = ["complete", "partial", "stable", "progressive", None]


class Directory:
    """MDT → region, from the registry the system under test holds."""

    def __init__(self, main_db: dict):
        self.region_of: Dict[str, str] = {}
        self.hospital_of: Dict[str, str] = {}
        for patient in main_db["patients"]:
            self.region_of[patient["mdt_id"]] = patient["region"]
            self.hospital_of[patient["mdt_id"]] = patient["hospital"]
        self.mdts = sorted(self.region_of, key=int)
        self.regions = sorted(set(self.region_of.values()))

    def same_region(self, mdt: str) -> List[str]:
        return [m for m in self.mdts if self.region_of[m] == self.region_of[mdt]]

    def other_region(self, mdt: str) -> List[str]:
        return [m for m in self.mdts if self.region_of[m] != self.region_of[mdt]]


def _path(kind: str, user: str, directory: Directory, rng: random.Random) -> str:
    if kind == "front":
        return "/"
    if kind == "records":
        return f"/records/{user}"
    if kind == "metrics":
        return f"/metrics/{rng.choice(directory.same_region(user))}"
    if kind == "compare":
        return f"/compare/{rng.choice(directory.same_region(user))}"
    if kind == "region":
        return f"/region/{rng.choice(directory.regions)}"
    if kind == "metrics_own":
        return f"/metrics/{user}"
    if kind == "region_own":
        return f"/region/{directory.region_of[user]}"
    if kind == "deny_records":
        return f"/records/{rng.choice([m for m in directory.mdts if m != user])}"
    if kind == "deny_metrics":
        return f"/metrics/{rng.choice(directory.other_region(user))}"
    if kind == "deny_compare":
        return f"/compare/{rng.choice(directory.other_region(user))}"
    raise ValueError(kind)


def page_block(directory: Directory, rng: random.Random) -> List[Tuple[str, str]]:
    """One shuffled block of (user, path) with the PAGE_BLOCK make-up."""
    block = []
    for kind, count in PAGE_BLOCK:
        for _ in range(count):
            user = rng.choice(directory.mdts)
            block.append((user, _path(kind, user, directory, rng)))
    rng.shuffle(block)
    return block


def refresh_burst(directory: Directory, rng: random.Random) -> List[Tuple[str, str]]:
    """Every user reads its working set, REFRESH_BURST times each, shuffled."""
    burst = []
    for user in directory.mdts:
        for kind, repeats in REFRESH_BURST:
            path = _path(kind, user, directory, rng)
            burst.extend([(user, path)] * repeats)
    rng.shuffle(burst)
    return burst


class CaseFactory:
    """New cases for ``MainDatabase.insert_*``, ids continuing the registry's."""

    def __init__(self, main_db: dict, rng: random.Random):
        self.rng = rng
        patients = main_db["patients"]
        tumours = [t for p in patients for t in p["tumours"]]
        treatments = [tr for t in tumours for tr in t["treatments"]]
        self.next_patient = 1 + max(int(p["patient_id"][1:]) for p in patients)
        self.next_tumour = 1 + max(int(t["tumour_id"][1:]) for t in tumours)
        self.next_treatment = 1 + max(
            (int(tr["treatment_id"][2:]) for tr in treatments), default=0
        )
        self.directory = Directory(main_db)

    def batch(self, per_mdt: int) -> dict:
        """*per_mdt* new patients for every MDT, with tumours and treatments."""
        rng = self.rng
        rows: Dict[str, list] = {"patients": [], "tumours": [], "treatments": []}
        for mdt in self.directory.mdts:
            for _ in range(per_mdt):
                patient_id = f"p{self.next_patient:05d}"
                self.next_patient += 1
                rows["patients"].append({
                    "patient_id": patient_id,
                    "name": f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
                    "date_of_birth": self._maybe(f"19{rng.randint(30, 89):02d}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"),
                    "nhs_number": self._maybe(f"{rng.randint(100, 999)} {rng.randint(100, 999)} {rng.randint(1000, 9999)}"),
                    "hospital": self.directory.hospital_of[mdt],
                    "mdt_id": mdt,
                    "region": self.directory.region_of[mdt],
                })
                for _ in range(rng.randint(1, 2)):
                    tumour_id = f"t{self.next_tumour:05d}"
                    self.next_tumour += 1
                    rows["tumours"].append({
                        "tumour_id": tumour_id,
                        "patient_id": patient_id,
                        "site": rng.choice(_SITES),
                        "stage": self._maybe(str(rng.randint(1, 4))),
                        "diagnosis_date": self._maybe(f"201{rng.randint(0, 9)}-0{rng.randint(1, 9)}-2{rng.randint(0, 8)}"),
                    })
                    for _ in range(rng.randint(0, 3)):
                        rows["treatments"].append({
                            "treatment_id": f"tr{self.next_treatment:05d}",
                            "tumour_id": tumour_id,
                            "kind": rng.choice(_KINDS),
                            "start_date": f"201{rng.randint(0, 9)}-0{rng.randint(1, 9)}-0{rng.randint(1, 9)}",
                            "outcome": rng.choice(_OUTCOMES),
                        })
                        self.next_treatment += 1
        return rows

    def _maybe(self, value: str) -> str:
        return "" if self.rng.random() < 0.15 else value
