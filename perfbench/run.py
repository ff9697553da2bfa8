"""posshorn session benchmark.

    python3 perfbench/run.py --workload learn-exact --seed 1 --seconds 45 --trace 0

Runs one workload as a closed loop: one client, one session at a time, in
this process and thread.  With ``--trace 0`` it times sessions untraced,
each twice a pass apart, and prints the end-to-end metrics over each
session's least time; with ``--trace 1`` it runs a fixed set of
sessions each untraced and then traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every session passed its checks, the golden transcript
replayed byte for byte and every query-bound invariant held.

Artifacts (full result with machine details, spans, cProfile top-20) go to
``.perfbench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import layers
from spans import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 25
PROFILE_SESSIONS = 6
REPEATS = 2  # runs of each session in a timed loop; its least time counts
MEMORY_SESSIONS = 8


def load_program() -> None:
    """Import posshorn from this checkout's sources, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import posshorn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import posshorn from {SRC}: {exc}")
    if SRC.resolve() not in Path(posshorn.__file__).resolve().parents:
        sys.exit(f"perfbench: posshorn imported from {posshorn.__file__}, not {SRC}")


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def set_up(workload, sessions) -> float:
    """Start the program cold and hand it every prepared target; the seconds
    this took.  Drawing the targets is benchmark work and happens before."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import posshorn.cli"], env=env, cwd=ROOT, check=True)
    for s in sessions:
        workload.materialise(s)
    return perf_counter() - t0


def run_session(workload, s, run):
    """(session, seconds, Result); the clock covers only ``run``.  What the
    process holds before the session is frozen out of the garbage collector
    while it runs, so the session's collections scan the program's objects,
    not the benchmark's."""
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    try:
        outcome = run(s)
    except Exception:
        return s, perf_counter() - t0, workload.failed(traceback.format_exc(limit=3))
    finally:
        gc.unfreeze()
    dt = perf_counter() - t0
    try:
        return s, dt, workload.check(s, outcome)
    except Exception:
        return s, dt, workload.failed(traceback.format_exc(limit=3))


def loop(workload, sessions, seconds: float, setup_times: list[float]):
    """Closed loop in REPEATS passes; (best, runs).

    The first pass runs sessions in index order until ``seconds / REPEATS``
    of wall time have passed and at least ``min_sessions`` have run; sessions
    past the prepared list are made on the way, untimed.  Each later pass
    runs the same sessions again, in the same order, on freshly materialised
    inputs.  ``runs`` holds every run; ``best`` holds one record per session,
    its least time with the Result of its first run.  A session's runs lie a
    pass apart, so its least time comes from the fastest spell of machine
    speed the run met.  Between sessions, set-up is timed again at even
    intervals until ``setup_times`` holds SETUP_REPEATS, so that it samples
    the same spells as the sessions."""
    runs = []
    start = perf_counter()

    def timed(s):
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and perf_counter() - start >= due:
            setup_times.append(set_up(workload, sessions))
        runs.append(run_session(workload, s, workload.run))

    first = []
    while len(first) < workload.min_sessions or perf_counter() - start < seconds / REPEATS:
        i = len(first)
        first.append(sessions[i] if i < len(sessions) else workload.make(i))
        timed(first[-1])
    for _ in range(REPEATS - 1):
        for s in first:
            workload.materialise(s)
            timed(s)
    n = len(first)
    best = [
        (s, min(dt for _, dt, _ in runs[i::n]), r)
        for i, (s, _, r) in enumerate(runs[:n])
    ]
    return best, runs


def repeat_mismatches(best, runs) -> list[str]:
    """Every run of a session must make the same queries as its first."""
    n = len(best)
    return [
        f"session {s.index}: a repeat made {r.mq} MQs and {r.eq} EQs, "
        f"its first run {b.mq} and {b.eq}"
        for k, (s, _, r) in enumerate(runs[n:])
        for b in [best[k % n][2]]
        if r.ok and b.ok and (r.mq, r.eq) != (b.mq, b.eq)
    ]


def traced_pairs(workload, sessions, tracer):
    """Each session untraced, then traced on a freshly made copy of its
    input, so both runs start from cold program caches and the pair shares
    the machine's conditions."""
    untraced, traced = [], []
    run = tracer.wrap(workload.run, "session")
    for s in sessions[: workload.trace_sessions]:
        untraced.append(run_session(workload, s, workload.run))
        fresh = workload.make(s.index)
        tracer.current_session = s.index
        restore = install(tracer)
        workload.tracer = tracer
        try:
            traced.append(run_session(workload, fresh, run))
        finally:
            workload.tracer = None
            restore()
    return untraced, traced


def session_peaks(workload, sessions) -> list:
    """(session, peak KiB, Result) for each of the first MEMORY_SESSIONS
    sessions, run again on freshly materialised inputs.  The peak is the most
    memory Python had allocated during the session above what it held at the
    start.  tracemalloc slows the program, so this pass runs after the timed
    loop."""
    out = []
    for s in sessions[:MEMORY_SESSIONS]:
        workload.materialise(s)
        peak = []

        def measured(s):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                return workload.run(s)
            finally:
                peak.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
                tracemalloc.stop()

        _, _, r = run_session(workload, s, measured)
        out.append((s, peak[0], r))
    return out


def invariants(records) -> list[str]:
    """The paper's query bounds, checked on every session that passed."""
    bad = []
    for s, _, r in records:
        if not r.ok:
            continue
        if r.level_search_mqs + r.base_mqs != r.mq:
            bad.append(
                f"session {s.index}: level-search {r.level_search_mqs} + base "
                f"{r.base_mqs} MQs != mq_count {r.mq}"
            )
        if r.escalations > s.precision:
            bad.append(
                f"session {s.index}: {r.escalations} escalations > prec(target) {s.precision}"
            )
        for used, p in r.search_runs:
            if used > layers.search_bound(p):
                bad.append(
                    f"session {s.index}: a level search at p={p} used {used} MQs > "
                    f"{layers.search_bound(p)}"
                )
                break
    return bad


def tail_rank(min_sessions: int) -> float:
    """Highest percentile with at least ten of the guaranteed sessions beyond."""
    return 100 * (min_sessions - 10) / min_sessions


def tail(times, min_sessions: int) -> float:
    """Nearest-rank tail_rank(min_sessions) percentile of ``times``."""
    ordered = sorted(times)
    rank = -(-len(ordered) * (min_sessions - 10) // min_sessions)
    return ordered[rank - 1]


def golden_replay(out: Path) -> str:
    """Replay the scripted worked session; '' when it matches the golden."""
    from posshorn import cli

    out.mkdir(parents=True, exist_ok=True)
    argv = [
        "learn", "--mode", "mq-eq",
        "--target", str(ROOT / "data" / "mqeq.pkb"),
        "--cex-strategy", "scripted", "--script", str(ROOT / "data" / "mqeq.script"),
        "--out-hypothesis", str(out / "golden.hypothesis"),
        "--out-transcript", str(out / "golden.transcript.jsonl"),
        "--out-stats", str(out / "golden.stats.json"),
    ]
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    golden = (ROOT / "tests" / "golden" / "mqeq_transcript.jsonl").read_bytes()
    if code != 0:
        return f"golden replay exited {code}"
    if (out / "golden.transcript.jsonl").read_bytes() != golden:
        return "golden replay transcript differs from tests/golden/mqeq_transcript.jsonl"
    return ""


def semantic_cross_check(records, seed: int) -> str:
    """pi_k(hypothesis) == pi_k(target) for one seeded passing session."""
    from posshorn.possibilistic import parse_poss_kb, pi_k

    passed = [(s, r) for s, _, r in records if r.ok]
    if not passed:
        return ""
    s, r = passed[seed % len(passed)]
    target = parse_poss_kb(s.path.read_text())
    hypothesis = parse_poss_kb(r.hypothesis)
    joint = target.signature | hypothesis.signature
    if pi_k(target.with_signature(joint)).degrees != pi_k(hypothesis.with_signature(joint)).degrees:
        return f"session {s.index}: pi_k(hypothesis) != pi_k(target)"
    return ""


def end_to_end(records, setup_times, peaks, min_sessions: int) -> dict:
    times = [dt for _, dt, _ in records]
    results = [r for _, _, r in records]
    busy = sum(times)
    counted = results[:min_sessions]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "session_p50_s": (statistics.median(times), "s"),
        "session_tail_s": (tail(times, min_sessions), "s"),
        "sessions_per_s": (len(times) / busy, "1/s"),
        "labels_per_s": (sum(r.labels for r in results) / busy, "1/s"),
        "mq_count": (sum(r.mq for r in counted), "count"),
        "eq_count": (sum(r.eq for r in counted), "count"),
        "peak_kib_per_answer": (
            sum(kib for _, kib, r in peaks if r.ok)
            / (sum(r.labels + r.eq for _, _, r in peaks if r.ok) or 1),
            "KiB",
        ),
    }


def profile(workload, out: Path) -> None:
    """cProfile top-20 by internal time over a few freshly made sessions."""
    profiler = cProfile.Profile()
    for i in range(PROFILE_SESSIONS):
        profiler.runcall(workload.run, workload.make(i))
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(20)
    (out / "profile.txt").write_text(text.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = ROOT / ".perfbench_out" / args.workload
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)

    sessions = [workload.draw(i) for i in range(workload.min_sessions)]
    setup_times = [set_up(workload, sessions)]
    failures = []
    if args.trace == 0:
        records, runs = loop(workload, sessions, args.seconds, setup_times)
        peaks = session_peaks(workload, sessions)
        metrics = end_to_end(records, setup_times, peaks, workload.min_sessions)
        failures += [f"memory pass, session {s.index}: {r.reason}" for s, _, r in peaks if not r.ok]
        failures += repeat_mismatches(records, runs)
        checked = runs
    else:
        tracer = Tracer()
        records, traced = traced_pairs(workload, sessions, tracer)
        profile(workload, out)
        tracer.write(out / "spans.tsv.gz")
        metrics, problems = layers.per_layer(tracer, records, traced)
        failures += problems
        checked = records + traced
    failures += invariants(checked)
    failures += [f"session {s.index} ({s.strategy}): {r.reason}" for s, _, r in checked if not r.ok]
    failures.append(golden_replay(out))
    if args.workload == "learn-exact":
        failures.append(semantic_cross_check(records[: workload.min_sessions], args.seed))
    failures = [msg for msg in failures if msg]

    failed = sum(not r.ok for _, _, r in checked)
    info = machine()
    print(f"# posshorn benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    print(f"# sessions={len(records)}"
          + (f" session_tail_s=p{tail_rank(workload.min_sessions):.1f}" if args.trace == 0 else ""))
    for name, (value, unit) in [*metrics.items(), ("failed_frac", (failed / len(checked), "ratio"))]:
        print(f"{name:40s} {value:>14.6g} {unit}")
    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    if len(failures) > 20:
        print(f"FAILED: ... and {len(failures) - 20} more", file=sys.stderr)
    correct = not failures
    result = {
        "correct": correct,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=info, failures=failures,
                  tail_percentile=tail_rank(workload.min_sessions),
                  session_seconds=[dt for _, dt, _ in records],
                  every_run_seconds=[dt for _, dt, _ in checked], setup_seconds=setup_times)
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
