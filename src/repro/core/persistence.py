"""Engine persistence: save/load a built IM-GRN engine.

The conclusion of the paper sketches a prototype system that keeps a
standing index over gene feature data from many institutions. That needs
the build artifacts to survive process restarts. A save is one directory
(the only format the serving daemon reads) holding

* one compressed ``shard_NNNN.npz`` per build shard: the shard's
  matrices (values, gene IDs, truth edges) and embeddings (pivot
  indices, x/y coordinates),
* ``index_arrays/``: the array-store snapshot as raw ``.npy`` files,
* ``meta.json``: the engine configuration and per-matrix fingerprints.

Loading restores the database and embeddings and packs the
(already-embedded) points into a fresh index -- skipping pivot selection
and expectation computation, the numerically heavy part of
:meth:`IMGRNEngine.build` -- or maps the snapshot read-only. Because
every component is deterministic given the save, a loaded engine answers
queries identically to the one that was saved (asserted in tests).
"""

from __future__ import annotations

import dataclasses
import io as _io
import json
import time
import zipfile
from pathlib import Path

import numpy as np

from ..config import (
    BuildConfig,
    EngineConfig,
    InferenceConfig,
    ObservabilityConfig,
)
from ..data.database import GeneFeatureDatabase
from ..data.matrix import GeneFeatureMatrix
from ..errors import IndexNotBuiltError, ValidationError
from .embedding import EmbeddedMatrix
from .query import IMGRNEngine, _MatrixEntry

__all__ = [
    "save_engine_sharded",
    "load_engine_sharded",
    "sharded_save_fingerprint",
]

#: Sharded-directory format version (bump on layout changes).
_SHARDED_FORMAT_VERSION = 1

#: Nested config dataclasses reconstructed by name from archive dicts.
_NESTED_CONFIG_FIELDS = {
    "inference": InferenceConfig,
    "build": BuildConfig,
    "observability": ObservabilityConfig,
}


def _fields_from_dict(cls, raw: dict) -> dict:
    """Keep only keys that are fields of ``cls`` (forward compatibility:
    archives written by newer versions may carry extra keys; archives
    written by older versions may miss some -- missing fields fall back
    to the dataclass defaults)."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in raw.items() if k in known}


def _config_from_dict(raw: dict) -> EngineConfig:
    """Rebuild an :class:`EngineConfig` from an archive dict, tolerantly.

    ``dataclasses.asdict`` flattens nested dataclasses on save; here each
    nested dict is rebuilt into its config class with the same
    unknown-key filtering, so an archive from before a config field
    existed still loads with that field at its default instead of
    raising.
    """
    kwargs = _fields_from_dict(EngineConfig, dict(raw))
    for name, cls in _NESTED_CONFIG_FIELDS.items():
        value = kwargs.get(name)
        if isinstance(value, dict):
            kwargs[name] = cls(**_fields_from_dict(cls, value))
    return EngineConfig(**kwargs)


def _matrix_payload(engine: IMGRNEngine, matrix: GeneFeatureMatrix) -> dict:
    """The per-matrix archive arrays (raw data + embedding)."""
    sid = matrix.source_id
    entry = engine._entries[sid]
    truth = sorted(matrix.truth_edges)
    return {
        f"values_{sid}": matrix.values,
        f"genes_{sid}": np.asarray(matrix.gene_ids, dtype=np.int64),
        f"truth_{sid}": (
            np.asarray(truth, dtype=np.int64).reshape(-1, 2)
            if truth
            else np.empty((0, 2), dtype=np.int64)
        ),
        f"pivots_{sid}": np.asarray(
            entry.embedded.pivot_indices, dtype=np.int64
        ),
        f"embx_{sid}": np.asarray(entry.embedded.x),
        f"emby_{sid}": np.asarray(entry.embedded.y),
    }


def _restore_matrix(archive, sid: int) -> tuple[GeneFeatureMatrix, EmbeddedMatrix]:
    """Rebuild one matrix and its embedding from archive arrays."""
    values = archive[f"values_{sid}"]
    genes = [int(g) for g in archive[f"genes_{sid}"]]
    truth = [(int(u), int(v)) for u, v in archive[f"truth_{sid}"]]
    matrix = GeneFeatureMatrix(values, genes, int(sid), truth)
    x = archive[f"embx_{sid}"].copy()
    y = archive[f"emby_{sid}"].copy()
    x.setflags(write=False)
    y.setflags(write=False)
    embedded = EmbeddedMatrix(
        source_id=int(sid),
        gene_ids=tuple(genes),
        pivot_indices=tuple(int(p) for p in archive[f"pivots_{sid}"]),
        x=x,
        y=y,
    )
    return matrix, embedded


def _install_index(
    engine: IMGRNEngine, embeddings: dict[int, EmbeddedMatrix]
) -> None:
    """Pack stored embeddings into a fresh index + inverted file.

    Sources are packed in database order -- the order :meth:`build`
    merges shard outputs in -- so a restored engine's index is
    byte-identical to a freshly built one.
    """
    from ..index.invertedfile import InvertedBitVectorFile
    from ..index.pagemanager import PageManager

    started = time.perf_counter()
    engine.pages = PageManager()
    inverted = InvertedBitVectorFile(engine.config.bitvector_bits)
    for matrix in engine.database:
        embedded = embeddings[matrix.source_id]
        engine._entries[matrix.source_id] = _MatrixEntry.of(matrix, embedded)
        for gene_id in embedded.gene_ids:
            inverted.add(gene_id, matrix.source_id)
    engine.inverted_file = inverted
    engine._repack()
    engine.build_seconds = time.perf_counter() - started


def _install_mmap_index(
    engine: IMGRNEngine,
    meta: dict,
    target: Path,
    embeddings: dict[int, EmbeddedMatrix],
) -> None:
    """Install a memmapped array-store snapshot as the engine's index.

    Nothing is packed: the snapshot's arrays are mapped read-only and
    become the traversal's read path directly. The page-ID space is
    reserved on a fresh :class:`PageManager` so I/O accounting against
    the snapshot's original page IDs still validates, and the inverted
    file is rebuilt from the snapshot's (gene, source) entry columns --
    signatures are order-independent ORs, so it matches the one saved
    from bit for bit. The store is published with a column table built
    from the reloaded matrices (tables are never persisted).
    """
    from ..index.arraystore import ArrayStore
    from ..index.invertedfile import InvertedBitVectorFile
    from ..index.pagemanager import PageManager

    arrays_entry = meta.get("index_arrays")
    if arrays_entry is None:
        raise ValidationError(
            f"{target}: save has no array-store snapshot; re-save the "
            "engine or load with mmap_index=False"
        )
    store = ArrayStore.load(target / arrays_entry["directory"], mmap=True)
    recorded = arrays_entry.get("fingerprint")
    if recorded is not None and store.fingerprint() != recorded:
        raise ValidationError(
            f"{target}: array-store snapshot does not match its recorded "
            "fingerprint; re-save the engine"
        )
    started = time.perf_counter()
    engine.pages = PageManager()
    engine.pages.reserve(store.pages_allocated)
    inverted = InvertedBitVectorFile(engine.config.bitvector_bits)
    gene_ids = store.entry_gene_ids
    source_ids = store.entry_source_ids
    for row in range(store.num_entries):
        inverted.add(int(gene_ids[row]), int(source_ids[row]))
    for matrix in engine.database:
        engine._entries[matrix.source_id] = _MatrixEntry.of(
            matrix, embeddings[matrix.source_id]
        )
    engine._publish(store)
    engine.inverted_file = inverted
    engine.build_seconds = time.perf_counter() - started


# ----------------------------------------------------------------------
# Per-shard persistence
# ----------------------------------------------------------------------
def _matrix_fingerprint(matrix: GeneFeatureMatrix) -> str:
    """Content hash of one matrix (values + gene IDs + truth edges).

    Two matrices with equal fingerprints embed identically under the same
    engine config and seed, so a stored embedding whose fingerprint still
    matches can be reused without re-running pivot selection. Delegates to
    :meth:`repro.data.matrix.GeneFeatureMatrix.fingerprint` (memoized).
    """
    return matrix.fingerprint()


def _embedding_config_key(config: EngineConfig) -> dict:
    """The config fields the embedding depends on.

    Execution-only knobs (``inference``, ``build``, ``observability``,
    node fan-out, bit widths, MC refinement accuracy) never change the
    embedding, so changing them must not invalidate stored shards.
    """
    return {
        "num_pivots": config.num_pivots,
        "expectation_mode": config.expectation_mode,
        "expectation_samples": config.expectation_samples,
        "pivot_global_iter": config.pivot_global_iter,
        "pivot_swap_iter": config.pivot_swap_iter,
        "seed": config.seed,
    }


def _shard_file_name(index: int) -> str:
    return f"shard_{index:04d}.npz"


#: Sub-directory of a sharded save holding the array-store snapshot.
_INDEX_ARRAYS_DIR = "index_arrays"


def save_engine_sharded(
    engine: IMGRNEngine, directory: str | Path
) -> dict[str, list[str]]:
    """Serialize a built engine as one archive per build shard.

    The indexed sources, in indexing order, are cut into shards of
    ``engine.config.build.shard_size`` matrices (the same shard boundary
    the parallel build uses); each shard becomes one ``shard_NNNN.npz``
    next to a ``meta.json`` that records the config plus per-matrix
    content fingerprints. Saving over an existing
    directory skips shards whose sources, fingerprints and
    embedding-relevant config are unchanged -- so after
    :func:`load_engine_sharded` refreshed one changed matrix, only that
    matrix's shard is rewritten.

    Returns ``{"written": [...], "skipped": [...]}`` (shard file names).

    Raises
    ------
    IndexNotBuiltError
        If the engine has not been built.
    """
    if not engine.is_built:
        raise IndexNotBuiltError("build() the engine before saving it")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    meta_path = target / "meta.json"
    previous_shards: dict[int, dict] = {}
    previous_config_key: dict | None = None
    previous_arrays: dict | None = None
    if meta_path.is_file():
        try:
            previous = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            previous = {}
        if previous.get("format_version") == _SHARDED_FORMAT_VERSION:
            previous_config_key = previous.get("embedding_config")
            previous_arrays = previous.get("index_arrays")
            for entry in previous.get("shards", ()):
                previous_shards[int(entry["index"])] = entry

    config_key = _embedding_config_key(engine.config)
    shard_size = engine.config.build.shard_size
    # The indexed sources in indexing order: a removed source stays in
    # the database but not in the save, whose reload packs this order.
    matrices = [entry.matrix for entry in engine._entries.values()]
    written: list[str] = []
    skipped: list[str] = []
    shard_entries: list[dict] = []
    for index, start in enumerate(range(0, len(matrices), shard_size)):
        chunk = matrices[start : start + shard_size]
        entry = {
            "index": index,
            "file": _shard_file_name(index),
            "sources": [int(m.source_id) for m in chunk],
            "fingerprints": {
                str(m.source_id): _matrix_fingerprint(m) for m in chunk
            },
        }
        shard_entries.append(entry)
        shard_path = target / entry["file"]
        old = previous_shards.get(index)
        unchanged = (
            old is not None
            and previous_config_key == config_key
            and old.get("sources") == entry["sources"]
            and old.get("fingerprints") == entry["fingerprints"]
            and shard_path.is_file()
        )
        if unchanged:
            skipped.append(entry["file"])
            continue
        payload: dict[str, np.ndarray] = {}
        for matrix in chunk:
            payload.update(_matrix_payload(engine, matrix))
        with _io.BytesIO() as buffer:
            np.savez_compressed(buffer, **payload)
            shard_path.write_bytes(buffer.getvalue())
        written.append(entry["file"])

    # Drop stale shard files from a previous, larger save.
    for index in sorted(previous_shards):
        if index >= len(shard_entries):
            stale = target / _shard_file_name(index)
            if stale.is_file():
                stale.unlink()
    # Array-store snapshot: the zero-copy read view of the index, written
    # as raw .npy files that np.memmap can share across processes. The
    # snapshot is rewritten only when its content fingerprint changed.
    store = engine.array_index
    fingerprint = store.fingerprint()
    arrays_dir = target / _INDEX_ARRAYS_DIR
    unchanged = (
        previous_arrays is not None
        and previous_arrays.get("fingerprint") == fingerprint
        and (arrays_dir / "header.json").is_file()
    )
    if unchanged:
        arrays_state = "skipped"
    else:
        store.save(arrays_dir)
        arrays_state = "written"
    meta = {
        "format_version": _SHARDED_FORMAT_VERSION,
        "config": dataclasses.asdict(engine.config),
        "embedding_config": config_key,
        "shards": shard_entries,
        "index_arrays": {
            "directory": _INDEX_ARRAYS_DIR,
            "fingerprint": fingerprint,
            "num_entries": store.num_entries,
        },
    }
    meta_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return {"written": written, "skipped": skipped, "index_arrays": arrays_state}


def _read_meta(target: Path) -> dict:
    """The parsed, version-checked ``meta.json`` of a sharded save."""
    meta_path = target / "meta.json"
    if not meta_path.is_file():
        raise ValidationError(f"{target}: not a sharded engine save")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{meta_path}: unreadable meta.json: {exc}") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != _SHARDED_FORMAT_VERSION:
        raise ValidationError(f"{target}: unsupported sharded format {version!r}")
    return meta


def sharded_save_fingerprint(directory: str | Path) -> str:
    """Content fingerprint of a sharded save, cheap enough to poll.

    Reads only ``meta.json`` and hashes the parts that determine query
    answers: the per-matrix content fingerprints (in shard order), the
    embedding-relevant config key, and the array-store snapshot
    fingerprint when present. Two saves with equal fingerprints load
    into engines that answer every query identically, so this is the
    republish-detection hook of the serving daemon's hot reload: the
    daemon records the fingerprint at startup and swaps in fresh
    ``mmap_index=True`` workers when a later poll (SIGHUP or the
    ``/reload`` admin verb) sees it change.

    Raises
    ------
    ValidationError
        If the directory is not a sharded engine save.
    """
    import hashlib

    meta = _read_meta(Path(directory))
    digest = hashlib.sha256()
    digest.update(
        json.dumps(meta.get("embedding_config"), sort_keys=True).encode("utf-8")
    )
    for entry in meta.get("shards", ()):
        digest.update(json.dumps(entry.get("sources")).encode("utf-8"))
        digest.update(
            json.dumps(entry.get("fingerprints"), sort_keys=True).encode("utf-8")
        )
    arrays = meta.get("index_arrays")
    if arrays is not None:
        digest.update(str(arrays.get("fingerprint")).encode("utf-8"))
    return digest.hexdigest()


def load_engine_sharded(
    directory: str | Path,
    database: GeneFeatureDatabase | None = None,
    *,
    mmap_index: bool = False,
) -> IMGRNEngine:
    """Restore an engine from a sharded save.

    Without ``database``, the matrices stored in the shards are restored
    verbatim. With ``database``,
    the given matrices become the engine's database and each one reuses
    its stored embedding when its content fingerprint still matches --
    only changed or new matrices re-run pivot selection and embedding.
    The resulting engine is bit-identical to a fresh serial build over the
    same database (packing order is database order either way).

    ``mmap_index=True`` skips the repack entirely and maps
    the save's array-store snapshot (``index_arrays/``) read-only via
    ``np.memmap``: loading the index becomes an mmap call, N worker
    processes share one page-cache copy, and queries return bit-identical
    answers and counters (see ``tests/test_arraystore.py``). The engine
    is then read-only (``add_matrix``/``remove_matrix`` raise); it cannot
    be combined with ``database``.

    The reuse/re-embed split is reported on the returned engine as
    ``engine.shard_load_report = {"reused": [...], "reembedded": [...]}``.

    Raises
    ------
    ValidationError
        If the directory is not a sharded engine save, a file it reads
        is unreadable (truncated or corrupt; the message names it), or
        ``mmap_index=True`` with no (or a stale) array snapshot, or with
        a ``database``.
    """
    target = Path(directory)
    meta = _read_meta(target)
    config = _config_from_dict(meta["config"])
    if mmap_index and database is not None:
        raise ValidationError(
            "mmap_index=True restores the saved index verbatim and cannot "
            "reconcile it against a caller-provided database"
        )

    stored_embeddings: dict[int, EmbeddedMatrix] = {}
    stored_fingerprints: dict[int, str] = {}
    restored = GeneFeatureDatabase()
    for entry in meta["shards"]:
        shard_path = target / entry["file"]
        if not shard_path.is_file():
            raise ValidationError(f"{target}: missing shard {entry['file']}")
        try:
            with np.load(shard_path) as archive:
                shard = [_restore_matrix(archive, sid) for sid in entry["sources"]]
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"{shard_path}: unreadable shard: {exc}") from exc
        for sid, (matrix, embedded) in zip(entry["sources"], shard):
            restored.add(matrix)
            stored_embeddings[int(sid)] = embedded
            stored_fingerprints[int(sid)] = entry["fingerprints"][str(sid)]

    if database is None:
        engine = IMGRNEngine(restored, config)
        if mmap_index:
            _install_mmap_index(
                engine, meta, target, stored_embeddings
            )
        else:
            _install_index(engine, stored_embeddings)
        engine.shard_load_report = {
            "reused": sorted(stored_embeddings),
            "reembedded": [],
        }
        return engine

    engine = IMGRNEngine(database, config)
    embeddings: dict[int, EmbeddedMatrix] = {}
    reused: list[int] = []
    reembedded: list[int] = []
    for matrix in database:
        sid = matrix.source_id
        stored = stored_fingerprints.get(sid)
        if stored is not None and stored == _matrix_fingerprint(matrix):
            embeddings[sid] = stored_embeddings[sid]
            reused.append(sid)
            continue
        rng = np.random.default_rng((config.seed, sid))
        embeddings[sid] = engine._embed_with_padding(matrix, "cost_model", rng)
        reembedded.append(sid)
    _install_index(engine, embeddings)
    engine.shard_load_report = {"reused": reused, "reembedded": reembedded}
    return engine
