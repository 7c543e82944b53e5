"""Run one benchmark workload against the cyclozeta sources of this checkout.

    python3 perfbench/run.py --workload exact-products --seed 1 --seconds 10 --trace 0

The run makes whole passes over the workload's operations, at least one,
as many as bring the measured time closest to ``--seconds``.  Each pass runs in a fresh process
of its own, as a CLI invocation would.  The pass process imports cyclozeta
from ``src/`` and builds the inputs from the seed, ``SETUP_REPEATS`` times
(``setup_s`` is the median over all passes); it computes the independent
references (untimed); then it times every operation from empty library
caches and checks its output (untimed).  All times are read on the paced
clock of :mod:`pace`, which takes out the machine's changes of speed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, ending on a traced
one, and the last line holds the per-layer metrics of the traced passes,
with the tracing overhead: traced minus untraced ``wall_s``.  The metric
names and units come from ``BENCHMARK.json``.

Each run writes its results, and each traced pass its spans, as JSON under
``perfbench/out/``.  Exit status is 0 when the run completed, also with
failed or wrong operations (``failed`` and ``correct`` say so), and 2 when
it could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
DEADLINE_S = 175  # a run, all its passes included, ends within this


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def _cyclozeta_modules() -> list:
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "cyclozeta" or n.startswith("cyclozeta."))]


def _set_up(builder, seed: int):
    """Import cyclozeta afresh and build the inputs, ``SETUP_REPEATS`` times;
    return the last build and the ``(start, end)`` of each repeat."""
    spans, workload = [], None
    for _ in range(SETUP_REPEATS):
        workload = None  # an earlier build must not stay alive
        for module in _cyclozeta_modules():
            del sys.modules[module.__name__]
        gc.collect()
        start = time.perf_counter()
        workload = builder(seed)
        spans.append((start, time.perf_counter()))
    imported = Path(sys.modules["cyclozeta"].__file__).resolve()
    if SRC not in imported.parents:
        raise RuntimeError(f"cyclozeta was imported from {imported}, not {SRC}")
    return workload, spans


def _run_pass(workload, tracer, workloads) -> dict:
    """One pass over the operations, from empty library caches."""
    workloads.clear_caches(_cyclozeta_modules())
    gc.collect()
    state: dict = {}
    spans, failed, wrong = [], [], []
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    try:
        for op in workload.ops:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                spans.append((start, time.perf_counter()))
                failed.append(op.name())
                traceback.print_exc(file=sys.stderr)
                continue
            spans.append((start, time.perf_counter()))
            outcome = op.check(result, state)
            if outcome == workloads.FAILED:
                failed.append(op.name())
            elif outcome == workloads.WRONG:
                wrong.append(op.name())
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    layer = workloads.cache_stats()
    checks = state.get("ref_checks", [])
    layer["numeval.ref_dev_max"] = max((dev for dev, _ in checks), default=0.0)
    layer["numeval.bound_violations"] = sum(1 for dev, bound in checks if dev > bound)
    return {"traced": tracer is not None, "ops": len(workload.ops), "spans": spans,
            "failed": failed, "wrong": wrong, "layer": layer,
            "peak_rss_mb": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt}


def _paced(pace, spans) -> list:
    """The durations of ``(start, end)`` spans on the paced clock."""
    if not spans:
        return []
    start, end = zip(*spans)
    return (pace.clock(end) - pace.clock(start)).tolist()


def _worker(args, workloads) -> int:
    """Body of the pass process: set up, prepare references, run one pass,
    all of it under the pace probe; times are read on the paced clock."""
    from pace import Pace
    pace = Pace()
    pace.start()
    try:
        workload, setup_spans = _set_up(workloads.WORKLOADS[args.workload], args.seed)
        workload.prepare()
        tracer = None
        if args.spans:
            from spans import Tracer
            tracer = Tracer()
        result = _run_pass(workload, tracer, workloads)
    finally:
        pace.stop()
    spans = result.pop("spans")
    result["durations"] = _paced(pace, spans)
    result["wall_s"] = sum(result["durations"])
    result["raw_wall_s"] = sum(end - start for start, end in spans)
    result["probe_ms"] = 1e3 * pace.median_probe_s()
    result["setup_s"] = _paced(pace, setup_spans)
    if tracer is not None:
        result["layer"].update(tracer.end_pass(pace.clock))
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def _spawn_pass(args, spans_path, timeout: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--pass"]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"pass process exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cyclozeta" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no cyclozeta sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # dependencies and the benchmark's own modules load before set-up timing
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.one_pass:
        return _worker(args, workloads)

    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            spans = OUT / f"{stem}-pass{len(passes)}.spans.json" if traced else None
            began = time.perf_counter()
            passes.append(_spawn_pass(args, spans, DEADLINE_S - (began - start)))
            # stop when one more pass would end further from --seconds than now
            now = time.perf_counter()
            if now - start + (now - began) / 2 >= args.seconds and traced == bool(args.trace):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    wrong = sorted({name for p in passes for name in p["wrong"]})
    measured = {
        "setup_s": statistics.median(t for p in passes for t in p["setup_s"]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": 1e3 * statistics.median(d for p in plain for d in p["durations"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    if traced_passes:
        for key in traced_passes[0]["layer"]:
            measured[key] = statistics.median(p["layer"][key] for p in traced_passes)
        measured["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced_passes) - measured["wall_s"])

    def report(metrics):
        return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                for m in metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "attempted": attempted, "failed": failed,
        "failed_ops": sorted({n for p in passes for n in p["failed"]}),
        "wrong_ops": wrong, "correct": not wrong,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "raw_wall_s", "probe_ms",
                                      "peak_rss_mb", "minor_faults", "setup_s")}
                   for p in passes],
        "metrics": report(spec["end_to_end"] + (spec["per_layer"] if traced_passes else [])),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": report(shown)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
