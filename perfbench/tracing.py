"""Traced run: the job's layer functions called one after another in
pipeline order, in this process, on the same input, with a span around
every call into a layer.

Spans (name, start, end, parent, batch) stay in memory and are written with
the per-layer ledger when the run ends. The same pipeline is run once more
with tracing off; the wall difference is the tracing overhead.

Layers and where the calls go (all from outside the package):

    read           pyarrow.parquet.read_table on each input file
    resume.filter  state.sink._add_part_id + the committed-partition filter
    kernel         stages.extract.ExtractKernel.__call__
      classify       core.extract.classify_payload (inside extract_turn)
      per turn       core.extract.extract_turn, grouped by engine
      assemble       kernel time not spent in extract_turn (Arrow build)
    fanout         state.sink._fanout_batch (fragment write)
    finalize       state.sink._finalize_one per partition
      concat         fragment read + concat (finalize minus write)
      write          state.sink.write_partition_group
        encode/sha256/fsync   its pq.write_table / hashlib.sha256 / os.fsync
        sort           the rest of write_partition_group (sort, cast, manifest)

``corpus_build`` adds the training-data stages, run through Ray one at a
time (quality, annotate, dedup_exact, dedup_near) and the corpus sink and
mixture report. A layer a workload does not have reads 0 in its ledger.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import percentile
from workloads import (
    NUM_PARTITIONS,
    Inputs,
    Workload,
    corpus_failures,
    input_files,
    recount_report,
    report_rows,
)

READ_COLUMNS = ["conv_id", "turn_idx", "role", "text"]
BATCH_ROWS = 8192  # write_partitioned's fanout_batch_size
ENGINES = ("html", "pdf", "plain", "binpdf")
CORPUS_RATIOS = ("quality.keep_ratio", "dedup_exact.survivor_ratio", "dedup_near.survivor_ratio")


class Tracer:
    """In-memory span recorder. With ``enabled=False`` every hook is a no-op
    so the same pipeline code runs untraced."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, batch]
        self.stack: list[int] = []
        self.batch = -1
        self.turn_s: list[float] = []
        self.classify_s = 0.0
        self.classify_n = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.batch])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)

        return traced

    def turn_timer(self, fn):
        out = self.turn_s

        def timed(text):
            t0 = time.perf_counter()
            r = fn(text)
            out.append(time.perf_counter() - t0)
            return r

        return timed

    def classify_timer(self, fn):
        def timed(text):
            t0 = time.perf_counter()
            r = fn(text)
            self.classify_s += time.perf_counter() - t0
            self.classify_n += 1
            return r

        return timed

    # -- aggregation ---------------------------------------------------------

    def busy(self, name: str, under: str | None = None) -> float:
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (under is None or self._has_ancestor(s, under))
        )

    def _has_ancestor(self, s: list, name: str) -> bool:
        p = s[3]
        while p != -1:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def roots(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[3] == -1:
                out[s[0]] += s[2] - s[1]
        return dict(out)


class _TimedModule:
    """Stands in for a module inside ``state.sink`` so that the named
    functions run under a span; every other attribute passes through."""

    def __init__(self, mod, tracer: Tracer, names: dict[str, str]) -> None:
        self._mod, self._tracer, self._names = mod, tracer, names

    def __getattr__(self, attr):
        fn = getattr(self._mod, attr)
        if attr in self._names:
            return self._tracer.wrap(self._names[attr], fn)
        return fn


@contextlib.contextmanager
def _patched(obj, **attrs):
    old = {k: getattr(obj, k) for k in attrs}
    for k, v in attrs.items():
        setattr(obj, k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            setattr(obj, k, v)


@contextlib.contextmanager
def _hooks(tracer: Tracer):
    """Install the spans that sit inside package functions for the duration
    of a traced pass."""
    if not tracer.enabled:
        yield
        return
    import hashlib

    from ocr_ray.core import extract as core
    from ocr_ray.state import sink

    with _patched(
        sink,
        pq=_TimedModule(pq, tracer, {"write_table": "encode"}),
        hashlib=_TimedModule(hashlib, tracer, {"sha256": "sha256"}),
        os=_TimedModule(os, tracer, {"fsync": "fsync"}),
        write_partition_group=tracer.wrap("write", sink.write_partition_group),
    ), _patched(core, classify_payload=tracer.classify_timer(core.classify_payload)):
        yield


class _Counts:
    def __init__(self) -> None:
        self.rows_read = 0
        self.rows_kept = 0
        self.input_bytes = 0
        self.fragments = 0
        self.frag_bytes = 0
        self.turn_kind: list[str] = []
        self.turn_bytes: list[int] = []
        self.turn_err: list[bool] = []
        self.manifests: list[dict] = []


def _read(inp: Inputs, tr: Tracer, c: _Counts):
    for f in input_files(inp.path):
        tr.batch = -1
        with tr.span("read"):
            t = pq.read_table(f, columns=READ_COLUMNS)
        c.input_bytes += os.path.getsize(f)
        for off in range(0, t.num_rows, BATCH_ROWS):
            yield t.slice(off, BATCH_ROWS)


def _extract(kernel, batch: pa.Table, tr: Tracer, c: _Counts) -> pa.Table:
    with tr.span("kernel"):
        out = kernel(batch)
    if tr.enabled:
        c.turn_kind += out.column("payload_kind").to_pylist()
        c.turn_bytes += out.column("bytes_in").to_pylist()
        c.turn_err += pc.not_equal(out.column("error"), "").to_pylist()
    return out


def _kernel(tr: Tracer):
    from ocr_ray.core import extract as core
    from ocr_ray.stages.extract import ExtractKernel

    kernel = ExtractKernel()
    if tr.enabled:
        kernel._extract = tr.turn_timer(core.extract_turn)
    return kernel


def _sink(batches, out_dir: str, tr: Tracer, c: _Counts, committed: dict,
          transform=None) -> None:
    """``write_partitioned``'s two phases, one call at a time: per batch the
    resume filter, the optional fused transform and the fragment fan-out;
    then one ``_finalize_one`` per partition."""
    from ocr_ray.state import sink

    frag_root = os.path.join(out_dir, "_frag")
    shutil.rmtree(frag_root, ignore_errors=True)
    os.makedirs(frag_root)
    keys = pa.array(sorted(committed), pa.int32()) if committed else None
    for i, batch in enumerate(batches):
        tr.batch = i
        with tr.span("resume.filter"):
            b = sink._add_part_id(batch, NUM_PARTITIONS)
            if keys is not None:
                b = b.filter(pc.invert(pc.is_in(b.column("part_id"), value_set=keys)))
        c.rows_read += batch.num_rows
        c.rows_kept += b.num_rows
        if b.num_rows == 0:
            continue
        if transform is not None:
            b = transform(b.drop_columns(["part_id"]))
        with tr.span("fanout"):
            if transform is not None:
                b = sink._add_part_id(b, NUM_PARTITIONS)
            c.fragments += sink._fanout_batch(b, frag_root=frag_root).num_rows
    tr.batch = -1
    for d, _, files in os.walk(frag_root):
        c.frag_bytes += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    for name in sorted(os.listdir(frag_root)):
        with tr.span("finalize"):
            c.manifests.append(
                sink._finalize_one(int(name.split("-")[1]), frag_root=frag_root,
                                   out_dir=out_dir, input_tag="",
                                   num_partitions=NUM_PARTITIONS)
            )
    shutil.rmtree(frag_root)


def commit_pass(inp: Inputs, out_dir: str, tr: Tracer) -> _Counts:
    """``extract_and_commit`` layer by layer."""
    from ocr_ray.state import sink

    c = _Counts()
    kernel = _kernel(tr)
    committed = sink.committed_partitions(out_dir)
    with _hooks(tr):
        _sink(_read(inp, tr, c), out_dir, tr, c, committed,
              transform=lambda b: _extract(kernel, b, tr, c))
    return c


def corpus_pass(inp: Inputs, out_dir: str, tr: Tracer) -> tuple[_Counts, pa.Table, dict]:
    """``training_data_full`` layer by layer; the Dataset stages run through
    Ray one at a time, each materialized inside its span."""
    import ray
    import ray.data as rd

    from ocr_ray.pipelines.training_data import (
        _split_col,
        annotate,
        dedup_exact_turns,
        dedup_near_turns,
        quality_gate,
    )

    c = _Counts()
    kernel = _kernel(tr)
    with _hooks(tr):
        extracted = pa.concat_tables([_extract(kernel, b, tr, c) for b in _read(inp, tr, c)])
        with tr.span("quality"):
            q = quality_gate(rd.from_arrow(extracted)).materialize()
        with tr.span("annotate"):
            a = annotate(q).materialize()
        slim = a.select_columns(
            ["conv_id", "turn_idx", "payload_kind", "lang_pred", "n_tokens", "main_text"]
        )
        with tr.span("dedup_exact"):
            e = dedup_exact_turns(slim).materialize()
        with tr.span("dedup_near"):
            n = dedup_near_turns(e, n_perms=64, pin=False).materialize()
        with tr.span("corpus_sink"):
            corpus = pa.concat_tables(ray.get(n.to_arrow_refs()))
            corpus = corpus.append_column("split", _split_col(corpus))
            _sink([corpus.slice(o, BATCH_ROWS) for o in range(0, corpus.num_rows, BATCH_ROWS)],
                  out_dir, tr, c, {})
        with tr.span("report"):
            counts = recount_report(pa.concat_tables(
                [pq.read_table(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
                 if f.startswith("part-")]
            ))
            report = pa.table({
                "split": [k[0] for k in counts], "lang_pred": [k[1] for k in counts],
                "n_turns": [v[0] for v in counts.values()],
                "n_tokens": [v[1] for v in counts.values()],
            })
    ratios = dict(zip(CORPUS_RATIOS, (q.count() / max(1, extracted.num_rows),
                                      e.count() / max(1, a.count()),
                                      n.count() / max(1, e.count()))))
    return c, report, ratios


def _ledger(tr: Tracer, c: _Counts, wall: float, job_wall: float, ncpu: int) -> dict:
    m: dict[str, float] = {}
    read = tr.busy("read")
    m["read.busy_s"] = read
    m["read.mb_per_s"] = c.input_bytes / 1e6 / read
    m["classify.busy_s"] = tr.classify_s
    m["classify.calls"] = tr.classify_n
    turn_s = tr.turn_s
    kernel_turns = sum(turn_s)
    m["kernel.busy_s"] = kernel_turns
    m["kernel.turns"] = len(turn_s)
    m["kernel.turns_per_s"] = len(turn_s) / kernel_turns
    m["kernel.errors"] = sum(c.turn_err)
    ms = [s * 1e3 for s in turn_s]
    m["kernel.turn_ms.p50"] = percentile(ms, 50)
    m["kernel.turn_ms.p99"] = percentile(ms, 99)
    m["kernel.turn_ms.max"] = max(ms)
    for eng in ENGINES:
        idx = [i for i, k in enumerate(c.turn_kind) if k == eng]
        busy = sum(turn_s[i] for i in idx)
        m[f"kernel.{eng}.turns"] = len(idx)
        m[f"kernel.{eng}.busy_s"] = busy
        m[f"kernel.{eng}.mb_per_s"] = sum(c.turn_bytes[i] for i in idx) / 1e6 / busy if busy else 0.0
        m[f"kernel.{eng}.errors"] = sum(1 for i in idx if c.turn_err[i])
    m["assemble.busy_s"] = tr.busy("kernel") - kernel_turns
    m["fanout.busy_s"] = tr.busy("fanout")
    m["fanout.fragments"] = c.fragments
    m["fanout.bytes"] = c.frag_bytes
    write = tr.busy("write")
    enc, sha, fsync = (tr.busy(n, under="finalize") for n in ("encode", "sha256", "fsync"))
    m["finalize.busy_s"] = tr.busy("finalize")
    m["finalize.concat_s"] = m["finalize.busy_s"] - write
    m["finalize.sort_s"] = write - enc - sha - fsync
    m["finalize.encode_s"] = enc
    m["finalize.sha256_s"] = sha
    m["finalize.fsync_s"] = fsync
    m["finalize.bytes_out"] = sum(x["bytes_out"] for x in c.manifests)
    rows = [x["rows_out"] for x in c.manifests]
    m["finalize.partition_skew"] = max(rows) / statistics.median(rows)
    m["resume.rows_read"] = c.rows_read
    m["resume.rows_skipped"] = c.rows_read - c.rows_kept
    m["resume.skip_ratio"] = (c.rows_read - c.rows_kept) / c.rows_read
    m["resume.filter_s"] = tr.busy("resume.filter")
    for stage in ("quality", "annotate", "dedup_exact", "dedup_near", "corpus_sink", "report"):
        m[f"{stage}.busy_s"] = tr.busy(stage)
    layers = tr.roots()
    layer_sum = sum(layers.values())
    m["ledger.traced_wall_s"] = wall
    m["ledger.layer_sum_s"] = layer_sum
    m["ledger.unaccounted_share"] = (wall - layer_sum) / wall
    # the job's CPU capacity (wall x cpus) minus the layer work it had to do
    m["ray.job_wall_s"] = job_wall
    m["ray.overhead_s"] = job_wall * ncpu - layer_sum
    m["ray.overhead_share"] = m["ray.overhead_s"] / (job_wall * ncpu)
    m["ledger.layers"] = layers
    return m


def traced_run(wl: Workload, inp: Inputs, out_root: str, job_wall: float, ncpu: int,
               job_result: pa.Table | None) -> tuple[dict, list, int]:
    """One traced and one untraced pass; returns (ledger, spans, failed
    turns). ``job_result`` is the last timed job's return value (None if it
    raised)."""
    walls = {}
    failed = 0
    for enabled in (True, False):
        tr = Tracer(enabled)
        out = os.path.join(out_root, "traced" if enabled else "untraced")
        wl.before_rep(out)
        t0 = time.perf_counter()
        if wl.name == "corpus_build":
            c, report, ratios = corpus_pass(inp, out, tr)
        else:
            c, ratios = commit_pass(inp, out, tr), dict.fromkeys(CORPUS_RATIOS, 0.0)
        walls[enabled] = time.perf_counter() - t0
        if enabled:
            if wl.name == "corpus_build":
                failed += corpus_failures(report, inp, out)
                # the traced pass must reproduce the job's own mixture report
                if job_result is not None and report_rows(job_result) != report_rows(report):
                    failed += inp.turns
            else:
                failed += wl.check(None, inp, out)
            ledger = _ledger(tr, c, walls[True], job_wall, ncpu)
            ledger.update(ratios)
            spans = tr.spans
        shutil.rmtree(out, ignore_errors=True)
    ledger["trace.untraced_wall_s"] = walls[False]
    ledger["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    return ledger, spans, failed
