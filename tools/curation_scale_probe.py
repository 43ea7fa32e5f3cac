"""Scale probe for the round-5 curation additions (dsir_weights,
semdedup_labels, bpe_train): generate deterministic documents/embeddings
tables N× the sf0.1 size in chunked parquet, run each operator at two
sizes, and report per-row throughput linearity.

Usage:
    python tools/curation_scale_probe.py [n_docs] [n_docs_2] [out_root]

Defaults: 250k and 1M docs (4× apart) under /tmp/curation_scale.  Schemas
match the driver testdata tables (documents: doc_id int64, text string,
lang string, source string, n_chars int64; embeddings: vec_id int64,
embedding list<float>, label int32).

semdedup_labels runs with n_clusters scaled to hold ~4k vectors per
cluster (the paper's deployment shape — per-cluster work is O(|c|^2), so
k must grow with N; the fixed-k driver config is the oracle shape, not
the scale shape).  bpe_train runs 8 merges — per-round cost is
vocabulary-bounded, so doc-count scaling exercises only the one
corpus-sized word-frequency pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

CHUNK = 62_500  # files per size: 4 at 250k, 16 at 1M — read parallelism
                # at the SMALL point too, so the ratio isn't a file-count
                # artifact
VOCAB_N = 30_000
TOKS_PER_DOC = 80
EMB_DIM = 64
LANGS = np.array(["en", "de", "fr", "es"], dtype=object)
LANG_P = np.array([0.55, 0.2, 0.15, 0.1])
ALPHA = np.array(list("abcdefghijklmnopqrstuvwxyz"), dtype=object)


def _vocab() -> np.ndarray:
    rng = np.random.default_rng(7)
    lens = rng.integers(3, 11, VOCAB_N)
    return np.array(["".join(ALPHA[rng.integers(0, 26, ln)])
                     for ln in lens], dtype=object)


def generate(out_root: str, n_docs: int) -> None:
    vocab = _vocab()
    doc_dir = os.path.join(out_root, "documents.parquet")
    emb_dir = os.path.join(out_root, "embeddings.parquet")
    os.makedirs(doc_dir, exist_ok=True)
    os.makedirs(emb_dir, exist_ok=True)
    # chunk reuse is keyed on this fingerprint: a parameter change with a
    # stale out_root must regenerate, never silently measure old data
    params = json.dumps({"chunk": CHUNK, "vocab": VOCAB_N,
                         "toks": TOKS_PER_DOC, "dim": EMB_DIM,
                         "langs": LANG_P.tolist()})
    marker = os.path.join(out_root, "_params.json")
    if os.path.exists(marker) and open(marker).read() != params:
        import shutil
        shutil.rmtree(doc_dir)
        shutil.rmtree(emb_dir)
        os.makedirs(doc_dir)
        os.makedirs(emb_dir)
    with open(marker, "w") as f:
        f.write(params)
    for ci, start in enumerate(range(0, n_docs, CHUNK)):
        n = min(CHUNK, n_docs - start)
        dpath = os.path.join(doc_dir, f"part-{ci:05d}.parquet")
        if not os.path.exists(dpath):
            rng = np.random.default_rng(4321 + ci)
            idx = np.minimum(rng.zipf(1.4, n * TOKS_PER_DOC) - 1,
                             VOCAB_N - 1).astype(np.int64)
            flat = pa.array(vocab[idx], pa.string())
            offs = pa.array(np.arange(0, (n + 1) * TOKS_PER_DOC,
                                      TOKS_PER_DOC, dtype=np.int32))
            text = pc.binary_join(pa.ListArray.from_arrays(offs, flat), " ")
            ids = np.arange(start, start + n, dtype=np.int64)
            pq.write_table(pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "text": text,
                "lang": pa.array(LANGS[rng.choice(4, n, p=LANG_P)],
                                 pa.string()),
                "source": pa.array(
                    np.char.add("src", (ids % 10).astype("U2")).astype(object),
                    pa.string()),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            }), dpath, row_group_size=65_536)
        epath = os.path.join(emb_dir, f"part-{ci:05d}.parquet")
        if not os.path.exists(epath):
            rng = np.random.default_rng(9876 + ci)
            m = rng.standard_normal((n, EMB_DIM)).astype(np.float32)
            ids = np.arange(start, start + n, dtype=np.int64)
            pq.write_table(pa.table({
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(m.ravel(), pa.float32()), EMB_DIM).cast(
                    pa.list_(pa.float32())),
                "label": pa.array((ids % 16).astype(np.int32), pa.int32()),
            }), epath, row_group_size=65_536)


def run_ops(d: str, n: int) -> dict:
    import ray.data as rd

    from prosearch_ray.pipelines.curate import dsir_weights
    from prosearch_ray.pipelines.dedup import semdedup_labels
    from prosearch_ray.pipelines.trainprep import bpe_train

    # warm the cluster (worker spawn + first-read setup) so the SMALL
    # point's timings aren't dominated by one-time session costs; both
    # inputs, so semdedup_labels does not pay the cold embeddings read
    rd.read_parquet(os.path.join(d, "documents.parquet")).count()
    rd.read_parquet(os.path.join(d, "embeddings.parquet")).count()
    out = {}
    t0 = time.monotonic()
    out["dsir_rows"] = dsir_weights(d).count()
    out["dsir_sec"] = round(time.monotonic() - t0, 2)
    k = max(8, n // 4096)
    t0 = time.monotonic()
    out["semdedup_rows"] = semdedup_labels(d, n_clusters=k).count()
    out["semdedup_sec"] = round(time.monotonic() - t0, 2)
    out["semdedup_clusters"] = k
    t0 = time.monotonic()
    out["bpe_rows"] = bpe_train(d, n_merges=8).num_rows
    out["bpe_sec"] = round(time.monotonic() - t0, 2)
    from prosearch_ray.pipelines.dedup import exact_substr_spans

    # the heaviest new op: two corpus-sized bounded-bucket exchanges;
    # key="hash" is the documented at-scale configuration
    t0 = time.monotonic()
    out["substr_rows"] = exact_substr_spans(d, key="hash").count()
    out["substr_sec"] = round(time.monotonic() - t0, 2)
    return out


def main() -> None:
    import ray

    n1 = int(sys.argv[1]) if len(sys.argv) > 1 else 250_000
    n2 = int(sys.argv[2]) if len(sys.argv) > 2 else 1_000_000
    root = sys.argv[3] if len(sys.argv) > 3 else "/tmp/curation_scale"

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    results = {}
    for n in (n1, n2):
        d = os.path.join(root, f"n{n}")
        t0 = time.monotonic()
        generate(d, n)
        gen_s = round(time.monotonic() - t0, 2)
        r = run_ops(d, n)
        r["gen_sec"] = gen_s
        r["n_docs"] = n
        results[n] = r
        print(json.dumps(r), flush=True)

    r1, r2 = results[n1], results[n2]
    for op in ("dsir", "semdedup", "bpe", "substr"):
        ratio = (r2[f"{op}_sec"] / r1[f"{op}_sec"]) / (n2 / n1)
        print(f"{op}: {n1}->{n2} docs, time x{r2[f'{op}_sec']/r1[f'{op}_sec']:.2f} "
              f"(per-row ratio {ratio:.2f}; <=1.0 is linear-or-better)")
    ray.shutdown()


if __name__ == "__main__":
    main()
