"""Per-partition lineage manifests: the persistent exporter queue, as files.

The reference's durability story (``/root/reference/exporter/
exporterhelper/internal/queue/persistent_queue.go``) is a WAL with
monotonic ReadIndex/WriteIndex plus a CurrentlyDispatchedItems set; on
restart, dispatched-but-unacked items are re-enqueued (``:430-448``) →
at-least-once. The batch translation (SURVEY.md §4.2 "checkpoint"):

- one **partition** = one unit of input (a fragment group / key range);
- processing a partition writes its outputs under a temp dir, then
  atomically renames to the final dir and writes a manifest JSON
  ``{partition_id, inputs, ruleset_hash, counts, metrics, status:
  "committed"}`` (atomic tmp+rename too);
- **resume** = skip partitions whose manifest is committed with the same
  ruleset hash, reprocess everything else. Output naming is deterministic
  (overwrite-same-name, never append) → idempotent, so the guarantee is
  exactly-once *per committed partition* — strictly stronger than the
  reference's at-least-once (``persistent_queue.go:394-430``).

The helpers below are the whole commit protocol: :func:`pending` picks
the partitions to run, :func:`open_staging` empties a partition's
staging dir, :func:`settle_staging` makes it hold exactly the files the
acks name, and :func:`commit_staging` renames it into place and commits
the manifest. :func:`run_resumable` drives them one partition at a time;
``pipelines.builder.run_pipeline`` drives them for many partitions in
flight in one Ray plan, committing each as its acks complete.

Counter identities (SURVEY.md §2.5): each manifest records rows_in,
rows_out and per-route counts computed **from the data**, so
produced(stage k) == consumed(stage k+1) holds by construction even when
Ray fuses stages.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


@dataclass
class PartitionTask:
    partition_id: str
    inputs: list[str]
    meta: dict = field(default_factory=dict)


class ManifestStore:
    def __init__(self, root: str):
        self.root = root
        self.manifest_dir = os.path.join(root, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def _path(self, pid: str) -> str:
        return os.path.join(self.manifest_dir, f"part-{pid}.json")

    def load(self, pid: str) -> dict | None:
        try:
            with open(self._path(pid)) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            # A torn/partial manifest == not committed (the crash-recovery
            # re-enqueue path, persistent_queue.go:430-448).
            return None

    def is_committed(self, pid: str, ruleset_hash: str | None = None,
                     inputs: Sequence[str] | None = None) -> bool:
        """Committed with the same ruleset AND (if given) the same recorded
        input set — a pid whose manifest lists different inputs is stale and
        must reprocess (guards against any pid-assignment drift)."""
        m = self.load(pid)
        if m is None or m.get("status") != "committed":
            return False
        if ruleset_hash is not None and m.get("ruleset_hash") != ruleset_hash:
            return False
        return inputs is None or sorted(m.get("inputs", [])) == sorted(inputs)

    def commit(self, pid: str, record: dict) -> None:
        """Atomic commit: write tmp, fsync, rename (rename is atomic on
        POSIX — the ack that deletes the item in persistent_queue.go:394-430)."""
        record = {**record, "partition_id": pid, "status": "committed",
                  "committed_at": time.time()}
        tmp = self._path(pid) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._path(pid))

    def committed_ids(self) -> set[str]:
        out = set()
        for fn in os.listdir(self.manifest_dir):
            if fn.startswith("part-") and fn.endswith(".json"):
                pid = fn[len("part-"):-len(".json")]
                if self.is_committed(pid):
                    out.add(pid)
        return out


def partition_output_dir(root: str, pid: str) -> str:
    return os.path.join(root, f"part-{pid}")


def reload_report(stores: dict[str, "ManifestStore"],
                  hashes: dict[str, str]) -> dict[str, dict]:
    """Diff a NEW config's per-output ruleset hashes
    (``config.output_ruleset_hashes``) against committed manifests —
    the batch analog of partial config reload
    (``otelcol/collector.go:290-329``): for each output, list the
    partitions that stay valid (committed under the same hash) and the
    ones the next ``run_resumable`` will recompute (committed under a
    DIFFERENT hash, i.e. the edited stage fed them). Pure report — no
    files are touched; ``run_resumable`` with the new hash performs the
    actual selective recompute."""
    report: dict[str, dict] = {}
    for name, store in stores.items():
        new_hash = hashes.get(name)  # None = output removed/renamed
        valid, stale = [], []
        for pid in sorted(store.committed_ids()):
            m = store.load(pid) or {}
            (valid if new_hash is not None
             and m.get("ruleset_hash") == new_hash
             else stale).append(pid)
        report[name] = {"ruleset_hash": new_hash,
                        "removed": new_hash is None,
                        "valid": valid, "stale": stale}
    return report


def pending(store: ManifestStore, tasks: Sequence[PartitionTask],
            ruleset_hash: str, force: bool = False,
            ) -> tuple[list[PartitionTask], list[str]]:
    """``(tasks to run, ids skipped)``: a task is skipped when its
    partition is committed with this ruleset hash and the same inputs
    (config change → different hash → recompute, the reload-fingerprint
    semantics of otelcol/collector.go:201-209), unless ``force``."""
    todo, skipped = [], []
    for task in tasks:
        if not force and store.is_committed(task.partition_id, ruleset_hash,
                                             task.inputs):
            skipped.append(task.partition_id)
        else:
            todo.append(task)
    return todo, skipped


def open_staging(store: ManifestStore, pid: str) -> str:
    """Empty staging dir for partition ``pid``. Its manifest goes first,
    then any earlier output (deterministic overwrite, never append), so a
    crash from here on leaves the partition uncommitted, never committed
    with its output gone."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(store._path(pid))
    final_dir = partition_output_dir(store.root, pid)
    staging = final_dir + ".staging"
    for d in (staging, final_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    os.makedirs(staging)
    return staging


def settle_staging(staging: str, acked: dict[str, int]) -> None:
    """Make ``staging`` hold exactly the parquet files the acks name:
    delete every other file (a retried attempt's leftovers) and the
    directories that leaves empty, then check each named file's footer
    row count against its ``acked`` rows (keys are paths relative to
    ``staging``). Raises naming the file on a mismatch or a missing
    file."""
    import pyarrow.parquet as pq

    for root, _, files in os.walk(staging, topdown=False):
        for f in files:
            path = os.path.join(root, f)
            if os.path.relpath(path, staging) not in acked:
                os.remove(path)
        if root != staging and not os.listdir(root):
            os.rmdir(root)
    for rel, rows in acked.items():
        on_disk = pq.read_metadata(os.path.join(staging, rel)).num_rows
        if on_disk != rows:
            raise RuntimeError(f"{os.path.join(staging, rel)}: footer has "
                               f"{on_disk} rows, its ack {rows}")


def commit_staging(store: ManifestStore, task: PartitionTask, staging: str,
                   ruleset_hash: str, metrics: dict, wall_sec: float,
                   **extra) -> None:
    """Rename ``staging`` to the partition's final dir, then commit its
    manifest (the ack of persistent_queue.go:394-430)."""
    os.replace(staging, partition_output_dir(store.root, task.partition_id))
    store.commit(task.partition_id, {
        "inputs": task.inputs,
        "ruleset_hash": ruleset_hash,
        "metrics": metrics,
        "wall_sec": wall_sec,
        **extra,
        **task.meta,
    })


def run_resumable(store: ManifestStore, tasks: Sequence[PartitionTask],
                  process: Callable[[PartitionTask, str], dict],
                  ruleset_hash: str, force: bool = False) -> dict:
    """Process partitions one at a time, skipping the ones :func:`pending`
    skips.

    ``process(task, staging_dir) -> metrics_dict`` must write all outputs
    under ``staging_dir``; on return the staging dir is atomically renamed
    to the final partition dir and the manifest committed. ``wall_sec`` is
    the partition's time from staging to commit, its own plan included.
    """
    todo, skipped = pending(store, tasks, ruleset_hash, force)
    ran = []
    for task in todo:
        staging = open_staging(store, task.partition_id)
        t0 = time.time()
        metrics = process(task, staging)
        commit_staging(store, task, staging, ruleset_hash, metrics,
                       wall_sec=time.time() - t0)
        ran.append(task.partition_id)
    return {"ran": ran, "skipped": skipped}
