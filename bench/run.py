"""qx benchmark: seeded closed-loop workloads whose every output is checked.

    python3 bench/run.py --workload construct|digits|symbolic|all \
        --seed N --seconds S --trace 0|1 [--record FILE]

One process and one client thread call qx in-process, one operation after
another. With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. `--workload all` runs the three workloads, each in its own
process, and prints every end-to-end metric side by side. `--record FILE`
appends each result to FILE as a JSON line for bench/compare.py.

Set-up (imports, warm-up, mpmath's constant caches) is timed from process
start and reported as setup_s, the median over this process and two fresh
processes that do only the set-up.
"""
from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import bisect
import gc
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("construct", "digits", "symbolic")
MIN_OPS = 100            # so that p90 has ten samples beyond it
SETUP_SAMPLES = 3
TRACED_SHARE = 1 / 3     # share of --seconds after which the traced run starts no new pass
CHILD_TIMEOUT_S = 170
REFERENCE_SHARE = 0.1    # reference work run between operations, as a share of their time
REFERENCE_SPAN_S = 1.0   # reference chunks this close to an operation give its slowdown
REFERENCE_SETUP_S = 0.1  # reference work right after set-up
NOMINAL_CHUNK_S = 600e-6  # one reference chunk on the 2-CPU x86-64 container it was written on, quiet

wl = None                # the workloads module, imported once qx is importable


class Record:
    __slots__ = ("kind", "label", "start", "seconds", "ok", "out_bytes", "scaled")

    def __init__(self, kind, label, start, seconds, ok, out_bytes):
        self.kind, self.label, self.start, self.seconds, self.ok, self.out_bytes = (
            kind, label, start, seconds, ok, out_bytes)
        self.scaled = seconds   # seconds at the machine's nominal speed, once a Speed has scaled it


_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(.))")
_REFERENCE_TEXT = "let p3 = bisect(p2); emit p3; (1/2 + (3 * sqrt(5)))" * 3


def reference_chunk():
    """Fixed interpreter work like qx's, but independent of it.

    Tokens, small objects in a dict, JSON text, fractions and big integers.
    """
    nodes: dict = {}
    for i, m in enumerate(_TOKEN.finditer(_REFERENCE_TEXT)):
        key = (m.group(), i % 7)
        if key not in nodes:
            nodes[key] = (m.group(), tuple(nodes)[-2:], Fraction(i, 7))
    text = json.dumps({f"{k}{n}": [str(v[2]), v[0]] for (k, n), v in nodes.items()},
                      sort_keys=True, indent=2)
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i * i + 1, 2 * i + 3)
    x = 7 ** 300
    for _ in range(20):
        x = (x * x) % (3 ** 500)
    return len(text), acc, x


class Speed:
    """The machine's speed over time, read from reference work run between operations.

    Other tenants of a shared machine slow every process on it, by up to 1.7x
    for seconds at a time. Reference chunks, a tenth of the operations' time,
    are timed between operations; an operation's latency divided by the
    slowdown of the chunks within REFERENCE_SPAN_S of it, against
    NOMINAL_CHUNK_S, is its latency at nominal speed. A change to qx does not
    change the reference work.
    """

    def __init__(self):
        self.op_s = self.ref_s = 0.0
        self.starts: list = []
        self.cumulative = [0.0]
        while self.ref_s < REFERENCE_SETUP_S:
            self._chunk()

    def _chunk(self):
        start = perf_counter()
        reference_chunk()
        seconds = perf_counter() - start
        self.ref_s += seconds
        self.starts.append(start)
        self.cumulative.append(self.cumulative[-1] + seconds)

    def after(self, record: Record):
        """Run the reference work that keeps pace with this operation."""
        self.op_s += record.seconds
        while self.ref_s < REFERENCE_SHARE * self.op_s:
            self._chunk()

    def slowdown(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - REFERENCE_SPAN_S)
        hi = bisect.bisect_right(self.starts, end + REFERENCE_SPAN_S)
        if hi <= lo:   # no chunk that close: take the nearest one after
            hi = min(lo + 1, len(self.starts))
            lo = hi - 1
        return (self.cumulative[hi] - self.cumulative[lo]) / ((hi - lo) * NOMINAL_CHUNK_S)

    def scale(self, records):
        for r in records:
            r.scaled = r.seconds / self.slowdown(r.start, r.start + r.seconds)


def import_program():
    """Import qx from this checkout's src/ and nowhere else."""
    global wl
    src = ROOT / "src"
    if not (src / "qx" / "__init__.py").is_file():
        raise SystemExit(f"error: no qx sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import qx
    if Path(qx.__file__).resolve().parent != (src / "qx").resolve():
        raise SystemExit(f"error: imported qx from {qx.__file__}, not from {src}")
    import workloads
    wl = workloads


def execute(op, tracer=None) -> Record:
    start = perf_counter()
    try:
        result = tracer.run_op(op.kind, op.run) if tracer else op.run()
    except Exception as exc:  # a crashing operation is a failed one; the run goes on
        result = exc
    seconds = perf_counter() - start
    gc.collect()   # this operation's cyclic garbage, which a CLI process drops at exit
    ok = False
    if not isinstance(result, Exception):
        try:
            ok = bool(op.check(result))
        except Exception as exc:  # a malformed output fails its check
            print(f"check raised on {op.kind} {op.label}: {exc!r}", file=sys.stderr)
        if op.then is not None:
            op.then(result)
    if not ok:
        detail = result.err.strip()[:200] if hasattr(result, "err") else repr(result)[:200]
        print(f"FAILED {op.kind} {op.label}: {detail}", file=sys.stderr)
    out_bytes = len(result.out) if hasattr(result, "out") else 0
    return Record(op.kind, op.label, start, seconds, ok, out_bytes)


def make_pass(workload: str, seed: int, index: int, work: Path):
    pass_dir = work / f"pass{index}"
    pass_dir.mkdir(parents=True, exist_ok=True)
    return wl.PASSES[workload](random.Random(f"{workload}/{seed}/{index}"), pass_dir)


def set_up(workload: str, work: Path):
    """Import qx and warm up.

    Returns the set-up seconds since process start, at nominal speed, the
    warm-up records, and the Speed that read the machine right after.
    """
    import_program()
    gc.freeze()    # keep the imported objects out of the per-operation collections
    warm_dir = work / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    records = [execute(op) for op in wl.WARMUPS[workload](warm_dir)]
    end = perf_counter()
    speed = Speed()
    return (end - _PROCESS_START) / speed.slowdown(end, end), records, speed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, which does only the set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seed, work, until, speed):
    """Whole passes, until `until(elapsed, passes)` holds after one."""
    passes = []
    start = perf_counter()
    index = 0
    while True:
        records = []
        for op in make_pass(workload, seed, index, work):
            records.append(execute(op))
            speed.after(records[-1])
        passes.append(records)
        index += 1
        if until(perf_counter() - start, passes):
            return passes


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def by_kind(records):
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.scaled)
    return kinds


def summary_lines(workload, seed, records, passes):
    """Sample counts, failed_share, and latency by operation kind."""
    failed = sum(not r.ok for r in records)
    lines = [f"# {workload} seed {seed}: {len(records)} operations in {passes} passes, "
             f"failed_share {failed / len(records):.6f} ({failed} failed)"]
    for kind, secs in sorted(by_kind(records).items()):
        lines.append(f"#   {kind:<9} n={len(secs):<5} p50 {statistics.median(secs) * 1e3:10.3f} ms"
                     f"   p90 {p90(secs) * 1e3:10.3f} ms")
    return lines


def end_to_end(workload, seed, seconds, work):
    setup_s, warm, speed = set_up(workload, work)
    passes = run_passes(workload, seed, work,
                        lambda elapsed, done: elapsed >= seconds
                        and sum(map(len, done)) >= MIN_OPS, speed)
    setups = [setup_s] + [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    timed = [r for p in passes for r in p]
    speed.scale(timed)
    latencies = [r.scaled for r in timed]
    checked = warm + timed
    failed = sum(not r.ok for r in checked)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(
            statistics.median(r.scaled for r in p) for p in passes) * 1e3, "ms"),
        "latency_p90_ms": (statistics.median(p90([r.scaled for r in p]) for p in passes) * 1e3, "ms"),
        "output_bytes": (statistics.median(sum(r.out_bytes for r in p) for p in passes), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((len(checked) - failed) / len(checked), "share"),
    }
    lines = summary_lines(workload, seed, timed, len(passes))
    slowdowns = [r.seconds / r.scaled for r in timed]
    lines.append(f"#   slowdown against nominal speed: median {statistics.median(slowdowns):.3f}, "
                 f"range {min(slowdowns):.3f}..{max(slowdowns):.3f}; unscaled ops_per_s "
                 f"{len(timed) / sum(r.seconds for r in timed):.4g}")
    lines.append(f"#   set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    lines += [f"#   {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return checked, metrics, lines


def size_metrics(seed, work):
    """Growth rows: one draw per family, timed untraced at each size knob."""
    rng = random.Random(f"size/{seed}")
    out, records = {}, []
    size_dir = work / "sizes"
    size_dir.mkdir(parents=True, exist_ok=True)

    def run(op):
        records.append(execute(op))
        return records[-1]

    def program_row(prefix, label, source):
        compiled, verified = [run(op) for op in wl.program_ops(label, source, size_dir)]
        out[f"{prefix}.compile_ms"] = (compiled.seconds * 1e3, "ms")
        out[f"{prefix}.verify_ms"] = (verified.seconds * 1e3, "ms")
        out[f"{prefix}.cert_bytes"] = (compiled.out_bytes, "bytes")

    u, v = wl.draw_ratio(rng, wl.BISECT_TOTAL)
    for k in wl.SIZE_BISECT_DEPTHS:
        program_row(f"size.bisect_chain.k{k}", f"bisect-k{k}", wl.bisect_chain(u, v, k))
    a, cs = wl.draw_meanprop(rng, max(wl.SIZE_MEANPROP_LENGTHS))
    for n in wl.SIZE_MEANPROP_LENGTHS:
        program_row(f"size.meanprop_chain.n{n}", f"meanprop-n{n}", wl.meanprop_chain(a, cs[:n]))
    for q in (8, 16, 24, 32):
        r = Fraction(wl.coprime(rng, q, 2 * q - 1), q)
        out[f"size.olmsted.q{q}.ms"] = (run(wl.olmsted_op(r)).seconds * 1e3, "ms")
    families = wl.digit_families(rng)
    for d in wl.DIGIT_LEVELS:
        total = sum(run(wl.eval_op(f, text, d, ref)).seconds for f, text, ref in families)
        out[f"size.digits.d{d}.eval_ms"] = (total * 1e3, "ms")
    return records, out


def traced(workload, seed, seconds, work):
    """Each pass runs untraced, then again traced; the first feed the op rows and the overhead."""
    from tracing import Tracer, layer_metrics

    _, warm, _ = set_up(workload, work)
    # before tracing: the spans kept in memory would slow the garbage collector
    size_records, sizes = size_metrics(seed, work)
    tracer = Tracer()
    plain, traced_passes = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds * TRACED_SHARE:
        index = len(plain)
        plain.append([execute(op) for op in make_pass(workload, seed, index, work)])
        tracer.install()
        try:
            traced_passes.append([execute(op, tracer) for op in
                                  make_pass(workload, seed, index, work / "traced")])
        finally:
            tracer.uninstall()
    plain_records = [r for p in plain for r in p]
    traced_records = [r for p in traced_passes for r in p]
    kinds = by_kind(plain_records)
    metrics = layer_metrics(tracer, len(traced_passes))
    metrics.update(sizes)
    metrics["trace.overhead_ratio"] = (sum(r.seconds for r in traced_records)
                                       / sum(r.seconds for r in plain_records), "ratio")
    for kind in ("compile", "verify", "eval", "report", "classify", "reduce", "olmsted"):
        secs = kinds.get(kind)
        metrics[f"op.{kind}.p50_ms"] = (statistics.median(secs) * 1e3 if secs else 0.0, "ms")
    spans_path = work.parent / f"spans-{workload}-s{seed}.jsonl"
    tracer.write_spans(spans_path)
    lines = summary_lines(workload, seed, plain_records, len(plain))
    lines.append(f"#   traced passes: {len(traced_passes)}; spans written to "
                 f"{spans_path.relative_to(ROOT)}")
    lines.append("#   self-time share by module: " + ", ".join(
        f"{m} {s:.3f}" for m, s in tracer.module_shares().items()))
    return warm + plain_records + traced_records + size_records, metrics, lines


def run_one(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.setup_probe:
            setup_s, warm, _ = set_up(args.workload, work)
            print(json.dumps({"setup_s": setup_s, "failed": sum(not r.ok for r in warm)}))
            return 0
        measure = traced if args.trace else end_to_end
        checked, metrics, lines = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r.ok for r in checked)
    result = {"correct": failed == 0, "attempted": len(checked), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print("\n".join(lines))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", str(Path(args.record).resolve())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<34} {'unit':<7}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<34} {unit:<7}" + "".join(
            f"{results[w]['metrics'][name]['value']:>16.6g}" for w in WORKLOADS))
    print(f"{'failed_share':<34} {'share':<7}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append each result as a JSON line to this file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
