"""Checkpoint manifest: per-partition lineage + metrics, resumable runs
(SURVEY.md §2.6 / §7 M6; the reference's Result sink generalized to an
append-only commit log).

One JSONL line per committed partition:
    {"partition": "...", "fragments": [...], "rows": N, "violations": M,
     "sketches": {...}, "committed": true}

A killed run restarts, loads the manifest, and filters committed fragments
out of the read — no recomputation. Appends are O_APPEND atomic at line
granularity; a partial final line (crash mid-write) is ignored on load."""

from __future__ import annotations

import json
import os


class Manifest:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._committed: dict[str, dict] = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from a crash
                if rec.get("committed"):
                    self._committed[rec["partition"]] = rec

    @property
    def committed(self) -> dict[str, dict]:
        return dict(self._committed)

    def is_committed(self, partition: str) -> bool:
        return partition in self._committed

    def is_committed_for(self, partition: str, fragments: list[str]) -> bool:
        """Committed AND covering exactly these fragments. A changed input
        file list (appended files, different files_per_partition) re-chunks
        partitions; skipping on name alone would silently leave new
        fragments unvalidated. A mismatched partition is revalidated and
        recommitted (the newest manifest line wins on reload)."""
        rec = self._committed.get(partition)
        return rec is not None and rec.get("fragments") == list(fragments)

    def commit(self, partition: str, fragments: list[str], rows: int,
               violations: int, extra: dict | None = None):
        rec = {"partition": partition, "fragments": fragments, "rows": rows,
               "violations": violations, "committed": True}
        if extra:
            rec.update(extra)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
            f.flush()
            os.fsync(f.fileno())
        self._committed[partition] = rec

    def pending(self, partitions: list[str]) -> list[str]:
        return [p for p in partitions if p not in self._committed]

    def records(self, partitions: list[str]) -> list[tuple[str, dict]]:
        """(partition, record) of the committed `partitions`, in that
        order — a re-run with another plan leaves the old plan's lines in
        the manifest."""
        return [(p, self._committed[p]) for p in partitions
                if p in self._committed]

    def summary(self, partitions: list[str]) -> dict:
        recs = [r for _, r in self.records(partitions)]
        rows = sum(r.get("rows", 0) for r in recs)
        viols = sum(r.get("violations", 0) for r in recs)
        return {"partitions": len(recs), "rows": rows,
                "violations": viols,
                "valid": viols == 0}
