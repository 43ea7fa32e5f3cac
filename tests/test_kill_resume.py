"""FIXTURES.md §5 kill_resume: SIGKILL a build mid-flight in a separate
process, rerun, and require (a) finished buckets untouched (attempt==1),
(b) the final index byte-identical to an uninterrupted build.  The same
contract holds for the delta fold: a writer killed between an add and its
fold, or inside the fold, resumes to the uninterrupted bytes.  An add
killed after its manifest leaves ids the next add does not reuse, and a
resumed build over delta buckets folds them without rebuilding them."""

import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_SNIPPET = """
import sys; sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from prosearch_ray.fixtures.gen import generate_corpus
from prosearch_ray.index.build import build_index
corpus = generate_corpus(1200)
r = build_index(rd.from_arrow(corpus), {idx!r}, docs_per_bucket=64)
print("DONE", r["built_buckets"], r["skipped_buckets"])
ray.shutdown()
"""


def _postings_bytes(index_dir):
    out = {}
    pdir = os.path.join(index_dir, "postings")
    for f in sorted(os.listdir(pdir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(pdir, f))
            out[f] = (t.num_rows,
                      t.column("term").to_pylist()[:3],
                      t.column("doc_ids").to_pylist()[:3])
    return out


def test_sigkill_resume_byte_identical(tmp_path):
    idx_killed = str(tmp_path / "killed")
    idx_clean = str(tmp_path / "clean")

    # 1. start a build and SIGKILL it once a few bucket manifests exist
    snippet = BUILD_SNIPPET.format(repo=REPO, idx=idx_killed)
    p = subprocess.Popen([sys.executable, "-c", snippet], cwd=REPO,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    killed = False
    deadline = time.time() + 180
    mdir = os.path.join(idx_killed, "manifest")
    while time.time() < deadline and p.poll() is None:
        n = len(os.listdir(mdir)) if os.path.isdir(mdir) else 0
        if 1 <= n:
            p.send_signal(signal.SIGKILL)
            killed = True
            break
        time.sleep(0.1)
    p.wait()
    if not killed:
        # the build outran the poller — the resume path is still exercised
        # below (everything gets skipped), but note it
        pass

    # 2. rerun to completion
    out = subprocess.run([sys.executable, "-c", snippet], cwd=REPO,
                         capture_output=True, text=True, check=True)
    done = [l for l in out.stdout.splitlines() if l.startswith("DONE")]
    assert done, out.stdout

    # 3. finished buckets were never re-tokenized
    manifests = [json.load(open(os.path.join(mdir, f)))
                 for f in sorted(os.listdir(mdir))]
    assert manifests and all(m["attempt"] == 1 for m in manifests)

    # 4. byte-identical to an uninterrupted build
    subprocess.run([sys.executable, "-c",
                    BUILD_SNIPPET.format(repo=REPO, idx=idx_clean)],
                   cwd=REPO, capture_output=True, text=True, check=True)
    assert _postings_bytes(idx_killed) == _postings_bytes(idx_clean)
    s1 = json.load(open(os.path.join(idx_killed, "stats.json")))
    s2 = json.load(open(os.path.join(idx_clean, "stats.json")))
    assert s1 == s2


ADD_SNIPPET = """
import os, signal, sys
sys.path.insert(0, {repo!r})
import pyarrow as pa
from prosearch_ray.index import build, delta

def die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

kill = {kill!r}
if kill == "between":  # the last add's writes are done, its fold not begun
    delta.fold_deltas = die
elif kill == "staging":  # the fold has staged some of its part files
    write_part = build._write_part_files
    calls = []
    def write(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            die()
        return write_part(*args, **kwargs)
    build._write_part_files = write
elif kill == "commit":  # the fold has moved one staged file into place
    replace = os.replace
    moved = []
    def commit_move(src, dst):
        if delta.FOLD_DIR in str(src) and delta.FOLD_DIR not in str(dst):
            moved.append(src)
            if len(moved) == 2:
                die()
        return replace(src, dst)
    os.replace = commit_move
elif kill == "offsets":  # the first add's manifest exists, its offsets not
    replace = os.replace
    def offsets_move(src, dst):
        if str(dst).endswith("_offsets.json"):
            die()
        return replace(src, dst)
    os.replace = offsets_move
for i in range(delta.LAZY_MAX_SEGS):
    delta.add_documents({idx!r}, pa.table({docs!r}[i]))
print("DONE")
"""


def _fold_docs(n):
    return [{"repo": ["killorg/r"], "path": [f"src/k{i}.py"],
             "commit": ["c" * 40], "lang": ["py"],
             "content": [f"qqkill{i} merge hash return the value {i}"]}
            for i in range(n)]


def _tree_bytes(root):
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def fold_base(ray_session, tmp_path_factory):
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index

    idx = str(tmp_path_factory.mktemp("fold") / "base")
    build_index(rd.from_arrow(generate_corpus(300)), idx, docs_per_bucket=64)
    return idx


@pytest.mark.parametrize("kill", ["between", "staging", "commit"])
def test_fold_kill_resume_byte_identical(fold_base, tmp_path, kill):
    """SIGKILL the writer between an add and the fold it triggers, or
    inside that fold (while staging part files, or while committing them):
    ``fold_deltas`` then resumes to an index byte-identical to an
    uninterrupted run."""
    import shutil

    import pyarrow as pa

    from prosearch_ray.index import delta

    docs = _fold_docs(delta.LAZY_MAX_SEGS)
    clean = str(tmp_path / "clean")
    shutil.copytree(fold_base, clean)
    for i, d in enumerate(docs):
        res = delta.add_documents(clean, pa.table(d))
        assert res["folded"] == (i == len(docs) - 1)

    killed = str(tmp_path / "killed")
    shutil.copytree(fold_base, killed)
    p = subprocess.run(
        [sys.executable, "-c",
         ADD_SNIPPET.format(repo=REPO, idx=killed, kill=kill, docs=docs)],
        cwd=REPO, capture_output=True, text=True)
    assert p.returncode == -signal.SIGKILL, p.stderr
    staged = os.path.join(killed, delta.FOLD_DIR)
    assert os.path.isdir(staged) == (kill != "between")
    assert os.path.exists(os.path.join(staged, delta.FOLD_MARKER)) == (
        kill == "commit")
    assert _tree_bytes(killed) != _tree_bytes(clean)

    delta.fold_deltas(killed)
    assert _tree_bytes(killed) == _tree_bytes(clean)


def test_add_killed_after_manifest_then_add(fold_base, tmp_path):
    """SIGKILL a one-doc add after its bucket manifest and before
    ``_offsets.json``, then add another doc: the second add takes its ids
    past the committed manifests, so every doc id is distinct, each doc is
    found by its own term and N counts every id once."""
    import shutil

    import numpy as np
    import pyarrow as pa

    from prosearch_ray.index import delta
    from prosearch_ray.query.searcher import IndexSearcher

    idx = str(tmp_path / "killed")
    shutil.copytree(fold_base, idx)
    docs = _fold_docs(delta.LAZY_MAX_SEGS)
    p = subprocess.run(
        [sys.executable, "-c",
         ADD_SNIPPET.format(repo=REPO, idx=idx, kill="offsets", docs=docs)],
        cwd=REPO, capture_output=True, text=True)
    assert p.returncode == -signal.SIGKILL, p.stderr
    delta.add_documents(idx, pa.table(docs[1]))

    meta = os.path.join(idx, "docmeta")
    ids = np.concatenate([
        pq.read_table(os.path.join(meta, f), columns=["doc_id"])
        .column("doc_id").to_numpy()
        for f in sorted(os.listdir(meta)) if f.endswith(".parquet")])
    assert len(np.unique(ids)) == len(ids)
    s = IndexSearcher(idx)
    assert s.n_docs == len(ids)
    for i in range(2):
        hits, _ = s.search(f"qqkill{i}", 10)
        assert [str(s.doc_keys[int(d)]) for d in hits] == [
            f"killorg/r/src/k{i}.py"]


def test_resume_after_deltas_folds_only_them(fold_base, tmp_path):
    """Three one-doc adds, then ``build_index(resume=True)``: the resume
    rebuilds no bucket (every manifest keeps ``attempt`` 1), rewrites no
    part file that no delta term hashes to, and leaves the index
    ``fold_deltas`` makes of a copy, byte for byte."""
    import shutil

    import pyarrow as pa

    from prosearch_ray.index import delta, layout
    from prosearch_ray.index.build import build_index
    from prosearch_ray.query.searcher import IndexSearcher

    idx = str(tmp_path / "idx")
    shutil.copytree(fold_base, idx)
    new = []
    for d in _fold_docs(3):
        new += delta.add_documents(idx, pa.table(d))["new_buckets"]
    folded = str(tmp_path / "folded")
    shutil.copytree(idx, folded)
    delta.fold_deltas(folded)

    num_parts = layout.load_merge_state(idx)["num_parts"]
    terms = pq.read_table([os.path.join(idx, "segments",
                                        f"bucket={b:08d}.parquet")
                           for b in new], columns=["term"])
    touched = {f"part={layout.term_part(t, num_parts):05d}.parquet"
               for t in set(terms.column("term").to_pylist())}

    def part_mtimes():
        return {(sub, f): os.path.getmtime(os.path.join(idx, sub, f))
                for sub in ("postings", "positions", "dict")
                for f in os.listdir(os.path.join(idx, sub))}

    before = part_mtimes()
    rep = build_index(None, idx, docs_per_bucket=64)
    assert rep["built_buckets"] == 0 and not rep["merged"] and rep["folded"]
    assert all(m["attempt"] == 1 for m in layout.load_manifests(idx))
    after = part_mtimes()
    changed = {f for (sub, f), t in before.items() if after[(sub, f)] != t}
    assert changed and changed <= touched < {f for _, f in before}
    assert _tree_bytes(idx) == _tree_bytes(folded)
    a, b = IndexSearcher(idx), IndexSearcher(folded)
    for q in ("qqkill0", "qqkill2", "merge hash", "return the value"):
        ids, scores = a.search(q, 20)
        want_ids, want_scores = b.search(q, 20)
        assert list(ids) == list(want_ids) and len(ids)
        assert list(scores) == list(want_scores)


REMERGE_SNIPPET = """
import os, signal, sys
sys.path.insert(0, {repo!r})
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from prosearch_ray.index import build, delta

driver = os.getpid()
done_dir = os.path.join({idx!r}, "merge_spill", "_done")
write_part = build._write_part_files

def write(*args, **kwargs):
    # runs inside a merge reduce task, which captures this module global
    if any(f.startswith("group=") for f in os.listdir(done_dir)):
        # one reduce group is done, the next one is writing its parts
        os.kill(driver, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)
    return write_part(*args, **kwargs)

if {kill!r}:
    build._write_part_files = write
    delta.fold_deltas({idx!r})
else:
    delta.add_documents({idx!r}, pa.table({doc!r}))
    delta.fold_deltas({idx!r})
print("DONE")
ray.shutdown()
"""


def test_remerge_killed_mid_reduce_then_new_bucket(fold_base, tmp_path):
    """A full re-merge fold killed after some reduce groups finished, then
    one more delta bucket and a fold over the grown bucket set: the kept
    ``merge_spill/`` must not serve the finished groups' old part rows,
    so the parts equal a fold that was never killed."""
    import shutil

    doc = _fold_docs(1)[0]
    roots = {}
    for name in ("clean", "killed"):
        root = roots[name] = str(tmp_path / name)
        shutil.copytree(fold_base, root)
        # no merge state: the next fold re-merges every bucket
        os.remove(os.path.join(root, "_merge.json"))

    def run(idx, kill):
        return subprocess.run([sys.executable, "-c", REMERGE_SNIPPET.format(
            repo=REPO, idx=idx, kill=kill, doc=doc)],
            cwd=REPO, capture_output=True, text=True)

    p = run(roots["killed"], True)
    assert p.returncode == -signal.SIGKILL, p.stderr[-2000:]
    assert any(f.startswith("group=") for f in os.listdir(os.path.join(
        roots["killed"], "merge_spill", "_done")))
    for root in roots.values():
        p = run(root, False)
        assert p.returncode == 0, p.stderr[-2000:]

    def parts(root):
        return {k: v for k, v in _tree_bytes(root).items()
                if k.split(os.sep)[0] in ("postings", "positions", "dict")
                or k in ("_merge.json", "stats.json")}

    assert parts(roots["killed"]) == parts(roots["clean"])
    assert not os.path.exists(os.path.join(roots["killed"], "merge_spill"))


FUSED_SNIPPET = """
import os, signal, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from prosearch_ray.index import build

driver = os.getpid()
kill = {kill!r}
victim = os.path.join("manifest", "bucket=00000005.json")
write_json = build._atomic_write_json

def write(obj, path):
    # runs inside the fused stage-A task, which captures this module global
    if kill == "slice" and path.endswith(victim):
        # the bucket's merge slice and its done-marker exist, its
        # manifest does not
        os.kill(driver, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)
    write_json(obj, path)
    if kill == "manifest" and path.endswith(victim):
        # the manifest exists, the group's done-marker does not
        os.kill(driver, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)

build._atomic_write_json = write
r = build.build_index({src!r}, {idx!r}, docs_per_bucket=64)
print("DONE", r["built_buckets"], r["skipped_buckets"])
ray.shutdown()
"""


def _index_bytes(index_dir):
    out = {}
    for sub in ("postings", "positions", "dict", "staged", "docmeta"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                with open(os.path.join(d, f), "rb") as fh:
                    out[f"{sub}/{f}"] = fh.read()
    with open(os.path.join(index_dir, "stats.json"), "rb") as fh:
        out["stats.json"] = fh.read()
    return out


@pytest.fixture(scope="module")
def fused_clean(tmp_path_factory):
    """A 1200-doc corpus as parquet files and its uninterrupted build."""
    from prosearch_ray.fixtures.gen import generate_corpus

    root = tmp_path_factory.mktemp("fused")
    src = str(root / "src")
    os.makedirs(src)
    corpus = generate_corpus(1200)
    for i in range(3):
        pq.write_table(corpus.slice(i * 400, 400),
                       os.path.join(src, f"part{i}.parquet"),
                       row_group_size=100)
    clean = str(root / "clean")
    subprocess.run([sys.executable, "-c", FUSED_SNIPPET.format(
        repo=REPO, kill=None, src=src, idx=clean)],
        cwd=REPO, capture_output=True, text=True, check=True)
    return src, clean


@pytest.mark.parametrize("kill", ["slice", "manifest"])
def test_kill_inside_fused_task_resumes_byte_identical(fused_clean, tmp_path,
                                                       kill):
    """SIGKILL the build inside a fused stage-A task: between a bucket's
    merge slice and its manifest, or after its manifest but before the
    group's done-marker.  The resumed build matches an uninterrupted one
    byte for byte, and no finished bucket was built twice."""
    src, clean = fused_clean
    idx = str(tmp_path / "killed")
    p = subprocess.run([sys.executable, "-c", FUSED_SNIPPET.format(
        repo=REPO, kill=kill, src=src, idx=idx)],
        cwd=REPO, capture_output=True, text=True)
    assert p.returncode == -signal.SIGKILL, p.stderr[-2000:]
    slices = os.path.join(idx, "merge_spill", "_done")
    assert "item=000005.json" in os.listdir(slices)
    assert os.path.exists(os.path.join(idx, "manifest",
                                       "bucket=00000005.json")) == (
        kill == "manifest")
    # bucket 5's group (5 % n_groups) has no done-marker yet
    assert not os.path.exists(os.path.join(idx, "staged", "_offsets.json"))
    assert not any(f.startswith("group=0001")
                   for f in os.listdir(os.path.join(idx, "spill", "_done")))
    mdir = os.path.join(idx, "manifest")
    n_kept = len(os.listdir(mdir))

    out = subprocess.run([sys.executable, "-c", FUSED_SNIPPET.format(
        repo=REPO, kill=None, src=src, idx=idx)],
        cwd=REPO, capture_output=True, text=True, check=True)
    done = [l.split() for l in out.stdout.splitlines() if l.startswith("DONE")]
    manifests = [json.load(open(os.path.join(mdir, f)))
                 for f in sorted(os.listdir(mdir))]
    assert len(manifests) == len(os.listdir(os.path.join(clean, "manifest")))
    # the report counts the buckets this run built, not those of groups
    # the killed run finished
    assert done == [["DONE", str(len(manifests) - n_kept), str(n_kept)]]
    assert all(m["attempt"] == 1 for m in manifests)
    assert _index_bytes(idx) == _index_bytes(clean)
    assert not os.path.exists(os.path.join(idx, "merge_spill"))
