"""The four workloads: their inputs, the timed job call and the correctness
check of each job's output.

Inputs come from the in-repo generators, seeded by ``--seed``, and are
cached with their oracle under ``.pb/cache``, keyed by a hash of the
sources they are made from; the program only ever receives the input
directory.

The oracle is ``ocr_ray.refimpl.extract_table``, which calls the same
per-turn engines (``core.extract.extract_turn``) as the job. The check
therefore guards the Ray read / fan-out / finalize / dedup pipeline around
the engines, not the engines' own semantics.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import ROOT, WORK

CACHE = os.path.join(WORK, "cache")
# what the inputs and the oracle are computed from
SOURCES = ("ocr_ray/sources/*.py", "ocr_ray/core/*.py", "ocr_ray/refimpl.py",
           "ocr_ray/stages/schemas.py", "ocr_ray/pipelines/training_data.py",
           "perfbench/workloads.py")
NUM_PARTITIONS = 16  # write_partitioned's default, which the jobs use
KEY = ["conv_id", "turn_idx"]


@dataclass
class Inputs:
    path: str
    turns: int
    bytes: int  # parquet bytes on disk
    gen_s: float  # 0.0 when the cache already held them
    oracle_s: float = 0.0


GIANT_CHARS = 20_000  # the main generator's giant single-line edge turns are 8k-40k words
GIANT_SHARE = {"mixed": 0.01, "binpdf": 0.0}  # the main generator averages 1% of turns


def _draw(kind: str, n_turns: int, seed: int) -> pa.Table:
    """Exactly ``n_turns`` turns of the ``kind`` generator at ``seed``:
    conversations in index order, each cut at its first turn that would
    overrun a quota. Giant turns get a quota of their own (``GIANT_SHARE``):
    they carry about half the bytes of the mixed input, so a free count
    would swing the job's work by a third from one seed to the next."""
    from ocr_ray.sources.binpdf_transcripts import gen_binpdf_conv
    from ocr_ray.sources.transcripts import TRANSCRIPT_SCHEMA, gen_conv

    gen = {"mixed": gen_conv, "binpdf": gen_binpdf_conv}[kind]
    giant_turns = round(n_turns * GIANT_SHARE[kind])
    left = {True: giant_turns, False: n_turns - giant_turns}
    rows, i = [], 0
    while left[True] or left[False]:
        for r in gen(i, seed):
            giant = giant_turns > 0 and len(r["text"]) > GIANT_CHARS
            if not left[giant]:
                break
            left[giant] -= 1
            rows.append(r)
        i += 1
    return pa.table({c: [r[c] for r in rows] for c in TRANSCRIPT_SCHEMA.names},
                    schema=TRANSCRIPT_SCHEMA)


@functools.lru_cache(maxsize=1)
def sources_hash() -> str:
    h = hashlib.blake2b(digest_size=6)
    for pattern in SOURCES:
        for p in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(p, "rb") as f:
                h.update(os.path.relpath(p, ROOT).encode() + b"\0" + f.read())
    return h.hexdigest()


def make_inputs(kind: str, n_turns: int, seed: int) -> Inputs:
    """Generate (or reuse) the transcript parquet for ``kind`` at ``seed``."""
    t0 = time.perf_counter()
    path = os.path.join(CACHE, f"{kind}_s{seed}_t{n_turns}_{sources_hash()}")
    existed = os.path.exists(os.path.join(path, "_SUCCESS"))
    if not existed:
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pq.write_table(_draw(kind, n_turns, seed), os.path.join(tmp, "part-0.parquet"))
        shutil.rmtree(path, ignore_errors=True)
        os.rename(tmp, path)
        with open(os.path.join(path, "_SUCCESS"), "w") as f:
            f.write("ok")
    gen_s = 0.0 if existed else time.perf_counter() - t0
    files = input_files(path)
    turns = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    return Inputs(path, turns, sum(os.path.getsize(f) for f in files), gen_s)


def input_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "part-*.parquet")))


# -- per-turn content digests ------------------------------------------------

_DIGEST_COLS = ["role", "payload_kind", "main_text", "blocks", "n_blocks", "error", "bytes_in"]


def turn_digests(t: pa.Table) -> dict[str, str]:
    """``conv_id#turn_idx`` -> digest of every other extracted column. A
    duplicated key maps to ``"dup"`` so it can never match the oracle."""
    t = t.sort_by([(k, "ascending") for k in KEY])
    keys = pc.binary_join_element_wise(
        t.column("conv_id"), pc.cast(t.column("turn_idx"), pa.string()), "#"
    ).to_pylist()
    cols = [t.column(c).to_pylist() for c in _DIGEST_COLS]
    out: dict[str, str] = {}
    for i, k in enumerate(keys):
        h = hashlib.blake2b(repr([c[i] for c in cols]).encode(), digest_size=16).hexdigest()
        out[k] = "dup" if k in out else h
    return out


def _text_digest(s: str) -> str:
    return hashlib.blake2b(s.encode(), digest_size=16).hexdigest()


def corpus_survivors(t: pa.Table) -> dict[str, str]:
    """The corpus ``training_data_full`` must commit, recounted in plain
    pyarrow: rows past the quality gate, deduplicated exactly by
    ``main_text`` with the smallest ``(conv_id, turn_idx)`` kept, as
    ``conv_id#turn_idx`` -> main_text digest. The generators draw no
    near-duplicate texts, so near dedup must drop nothing more."""
    from ocr_ray.pipelines.training_data import MIN_CHARS

    keep = pc.and_(pc.equal(t.column("error"), ""),
                   pc.greater_equal(pc.utf8_length(t.column("main_text")), MIN_CHARS))
    t = t.filter(keep).sort_by([(k, "ascending") for k in KEY])
    out: dict[str, str] = {}
    seen: set[str] = set()
    for c, i, m in zip(*(t.column(k).to_pylist() for k in (*KEY, "main_text"))):
        if m not in seen:
            seen.add(m)
            out[f"{c}#{i}"] = _text_digest(m)
    return out


def _turns_oracle(path: str) -> str:
    return os.path.join(path, "_oracle.parquet")


def _corpus_oracle(path: str) -> str:
    return os.path.join(path, "_corpus_oracle.json")


def ensure_oracle(inp: Inputs) -> None:
    """``ocr_ray.refimpl.extract_table`` on the input, in key order, and the
    digests of the corpus built from it; computed once per input and cached
    next to it."""
    from ocr_ray.refimpl import extract_table

    if os.path.exists(_corpus_oracle(inp.path)):
        return
    t0 = time.perf_counter()
    t = extract_table(pa.concat_tables([pq.read_table(f) for f in input_files(inp.path)]))
    pq.write_table(_in_key_order(t), _turns_oracle(inp.path))
    tmp = _corpus_oracle(inp.path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(corpus_survivors(t), f)
    os.replace(tmp, _corpus_oracle(inp.path))
    inp.oracle_s = time.perf_counter() - t0


def read_parts(out_dir: str) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))]
    )


def _in_key_order(t: pa.Table) -> pa.Table:
    return t.select(KEY + _DIGEST_COLS).sort_by([(k, "ascending") for k in KEY])


@functools.lru_cache(maxsize=2)
def _load_turns_oracle(path: str) -> pa.Table:
    return pq.read_table(_turns_oracle(path))


@functools.lru_cache(maxsize=2)
def _load_corpus_oracle(path: str) -> dict[str, str]:
    with open(_corpus_oracle(path)) as f:
        return json.load(f)


def _mismatches(want: dict[str, str], got: dict[str, str]) -> int:
    """Keys missing from, added to, or differing from ``want``."""
    bad = sum(1 for k, d in want.items() if got.get(k) != d)
    return bad + sum(1 for k in got if k not in want)


def failed_vs_oracle(out_dir: str, inp: Inputs) -> int:
    """Turns missing from, added to, or differing from the oracle. An output
    equal to the oracle table passes at once; any other is compared turn by
    turn through the per-turn digests."""
    want = _load_turns_oracle(inp.path)
    got = _in_key_order(read_parts(out_dir))
    if got.equals(want):
        return 0
    return _mismatches(turn_digests(want), turn_digests(got))


def file_checksums(out_dir: str) -> dict[str, str]:
    out = {}
    for p in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))):
        with open(p, "rb") as f:
            out[os.path.basename(p)] = hashlib.sha256(f.read()).hexdigest()
    return out


# -- workloads ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    kind: str
    n_turns: int
    state: dict = field(default_factory=dict)

    def prepare(self, inp: Inputs, out_root: str) -> None:
        """Untimed, once per run, after Ray is up."""

    def before_rep(self, out_dir: str) -> None:
        """Untimed, before each timed job call."""
        shutil.rmtree(out_dir, ignore_errors=True)

    def job(self, inp: Inputs, out_dir: str):
        from ocr_ray.pipelines.extract_pipeline import extract_and_commit

        return extract_and_commit(inp.path, out_dir, resume=False)

    def check(self, result, inp: Inputs, out_dir: str) -> int:
        """Number of failed turns in this rep's output."""
        return failed_vs_oracle(out_dir, inp)


class ResumeHalf(Workload):
    """A clean commit, then every other partition's manifest deleted: the
    resumed job reads and hashes every row but re-extracts only half."""

    def prepare(self, inp: Inputs, out_root: str) -> None:
        from ocr_ray.pipelines.extract_pipeline import extract_and_commit

        clean = os.path.join(out_root, "clean")
        shutil.rmtree(clean, ignore_errors=True)
        extract_and_commit(inp.path, clean, resume=False)
        self.state["clean"] = clean
        self.state["clean_failed"] = failed_vs_oracle(clean, inp)
        self.state["checksums"] = file_checksums(clean)
        self.state["turns_by_part"] = _turns_by_part(clean)

    def before_rep(self, out_dir: str) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.copytree(self.state["clean"], out_dir)
        for m in sorted(glob.glob(os.path.join(out_dir, "_manifest", "part-*.json")))[::2]:
            os.remove(m)

    def job(self, inp: Inputs, out_dir: str):
        from ocr_ray.pipelines.extract_pipeline import extract_and_commit

        return extract_and_commit(inp.path, out_dir, resume=True)

    def check(self, result, inp: Inputs, out_dir: str) -> int:
        """Every partition file must be byte-identical to the clean run's;
        a differing or missing partition fails all of its turns."""
        want, got = self.state["checksums"], file_checksums(out_dir)
        per_part = self.state["turns_by_part"]
        bad = sum(per_part[p] for p in want if got.get(p) != want[p])
        return bad + sum(1 for p in got if p not in want) + self.state["clean_failed"]


def _turns_by_part(out_dir: str) -> dict[str, int]:
    return {
        os.path.basename(p): pq.ParquetFile(p).metadata.num_rows
        for p in glob.glob(os.path.join(out_dir, "part-*.parquet"))
    }


class CorpusBuild(Workload):
    """``training_data_full``: extract, quality gate, annotate, exact and
    near dedup, split, partitioned sink, mixture report."""

    def job(self, inp: Inputs, out_dir: str):
        import ray.data as rd

        from ocr_ray.pipelines.training_data import training_data_full

        return training_data_full(rd.read_parquet(inp.path), out_dir)

    def check(self, result, inp: Inputs, out_dir: str) -> int:
        return corpus_failures(result, inp, out_dir)


def recount_report(corpus: pa.Table) -> dict[tuple, tuple]:
    g = (
        corpus.select(["split", "lang_pred", "n_tokens"])
        .group_by(["split", "lang_pred"])
        .aggregate([("n_tokens", "count"), ("n_tokens", "sum")])
    )
    return {
        (r["split"], r["lang_pred"]): (r["n_tokens_count"], r["n_tokens_sum"])
        for r in g.to_pylist()
    }


def report_rows(report: pa.Table) -> dict[tuple, tuple]:
    return {
        (r["split"], r["lang_pred"]): (r["n_turns"], r["n_tokens"])
        for r in report.to_pylist()
    }


def corpus_failures(report: pa.Table, inp: Inputs, out_dir: str) -> int:
    """The committed corpus must hold exactly the oracle's survivors (see
    ``corpus_survivors``) with their texts, no two surviving ``main_text``
    values may be equal, and the mixture report must equal a recount of the
    corpus. Counts the turns that are missing, extra or wrong, the
    duplicate survivors and the turns the report gets wrong."""
    corpus = read_parts(out_dir)
    got: dict[str, str] = {}
    keys = zip(corpus.column("conv_id").to_pylist(), corpus.column("turn_idx").to_pylist())
    for (c, i), m in zip(keys, corpus.column("main_text").to_pylist()):
        k = f"{c}#{i}"
        got[k] = "dup" if k in got else _text_digest(m)
    bad = _mismatches(_load_corpus_oracle(inp.path), got)
    bad += corpus.num_rows - len(pc.unique(corpus.column("main_text")))
    want = recount_report(corpus)
    rows = report_rows(report)
    for k in set(want) | set(rows):
        w, g = want.get(k, (0, 0)), rows.get(k, (0, 0))
        if w != g:
            bad += max(abs(w[0] - g[0]), 1)
    return bad


# Input sizes in turns (the mixed generator averages 7 turns a conversation,
# the binpdf one 5): small enough that a run with its Ray sessions fits the
# benchmark's time budget; BENCHMARK.json says why each workload is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed_commit", "mixed", 5600),
        Workload("binpdf_commit", "binpdf", 2250),
        ResumeHalf("resume_half", "mixed", 5600),
        CorpusBuild("corpus_build", "mixed", 2100),
    )
}
