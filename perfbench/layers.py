"""Per-layer metrics of a traced run, and what each one should move.

A layer is a module of the program.  Times are self times (a span minus its
children) summed over the traced pass; counts are totals over the same
sessions.  Counts the CLI already writes (the stats file, the ``instance``
tag of each transcript event) come from the untraced pass of those sessions.

Each entry of :data:`METRICS` is (name, unit, better, end-to-end metric it
should move, workloads where the layer works, workloads where it idles).
"""

from __future__ import annotations

import statistics

EXACT, PAC, CLASSICAL = "learn-exact", "pac-label", "learn-classical"
ALL = f"{EXACT}, {PAC}, {CLASSICAL}"

METRICS = [
    ("cli.parse.self_s", "s", "lower", "session_p50_s", f"{EXACT}, {CLASSICAL}", PAC),
    ("cli.verify.self_s", "s", "lower", "session_p50_s", f"{EXACT}, {CLASSICAL}", PAC),
    ("cli.write.self_s", "s", "lower", "session_p50_s", f"{EXACT}, {CLASSICAL}", PAC),
    ("teacher.mq.calls", "count", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.mq.self_s", "s", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.eq.calls", "count", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.eq.self_s", "s", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.eq.share", "ratio", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.poss_equivalent.self_s", "s", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("teacher.find_counterexample.self_s", "s", "lower", "session_p50_s, sessions_per_s", EXACT, PAC),
    ("transcript.record.calls", "count", "lower", "session_p50_s", EXACT, PAC),
    ("transcript.record.self_s", "s", "lower", "session_p50_s", EXACT, PAC),
    ("transcript.bytes", "B", "lower", "session_p50_s", EXACT, PAC),
    ("lift.rounds", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.escalations", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.instances", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.find_valuation.calls", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.level_search_mqs", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.find_valuation.max_mqs", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.restart_discarded_mqs", "count", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.restart_discarded_s", "s", "lower", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("lift.useful_mq_frac", "ratio", "higher", "mq_count, session_tail_s", EXACT, CLASSICAL),
    ("classical.steps", "count", "lower", "session_p50_s", f"{CLASSICAL}, {EXACT}", PAC),
    ("classical.base_mqs", "count", "lower", "session_p50_s", f"{CLASSICAL}, {EXACT}", PAC),
    ("classical.answer_eq_counterexample.calls", "count", "lower", "session_p50_s",
     f"{CLASSICAL}, {EXACT}", PAC),
    ("classical.pending_hypothesis.calls", "count", "lower", "session_p50_s",
     f"{CLASSICAL}, {EXACT}", PAC),
    ("classical.pending_hypothesis.self_s", "s", "lower", "session_p50_s",
     f"{CLASSICAL}, {EXACT}", PAC),
    ("possibilistic.poss_entails.calls", "count", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.poss_entails.self_s", "s", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.cut.calls", "count", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.cut.self_s", "s", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.entails_per_cut", "ratio", "higher", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.poss_equivalent.self_s", "s", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("possibilistic.val_of.calls", "count", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("horn.entails.calls", "count", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("horn.entails.self_s", "s", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("horn.closure.calls", "count", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("horn.closure.self_s", "s", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("horn.equivalent.self_s", "s", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("horn.kb_built", "count", "lower", "session_p50_s, labels_per_s", ALL, "none"),
    ("valuation.lt.calls", "count", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("valuation.new.calls", "count", "lower", "labels_per_s, session_p50_s",
     f"{PAC}, {EXACT}", CLASSICAL),
    ("pac.sample.calls", "count", "lower", "labels_per_s", PAC, f"{EXACT}, {CLASSICAL}"),
    ("pac.sampled_eqs", "count", "lower", "labels_per_s", PAC, f"{EXACT}, {CLASSICAL}"),
    ("pac.label.self_s", "s", "lower", "labels_per_s", PAC, f"{EXACT}, {CLASSICAL}"),
    ("pac.check.self_s", "s", "lower", "labels_per_s", PAC, f"{EXACT}, {CLASSICAL}"),
    ("pac.empirical_error.self_s", "s", "lower", "labels_per_s", PAC, f"{EXACT}, {CLASSICAL}"),
    ("trace.untraced_session_p50_s", "s", "lower", "session_p50_s", ALL, "none"),
    ("trace.traced_session_p50_s", "s", "lower", "session_p50_s", ALL, "none"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost)", ALL, "none"),
]

UNITS = {name: unit for name, unit, *_ in METRICS}


def search_bound(p: int) -> int:
    """ceil(log2(10^p + 1)): the paper's bound on MQs per find_valuation."""
    return (10**p).bit_length()


def per_layer(tracer, untraced, traced) -> tuple[dict, list[str]]:
    """(metrics, problems) from the two passes over the same sessions."""
    agg = tracer.by_name()

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def total_s(*names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def counted(name):
        return tracer.counts.get(name, [0])[0]

    results = [r for _, _, r in untraced]
    problems = []

    # attribute each MQ to its level search and its orchestrator round
    mq_id, fv_id, round_id = (tracer.name_id(n) for n in ("teacher.mq", "lift.find_valuation", "lift.round"))
    per_search: dict[int, int] = {}
    per_round: dict[int, int] = {}
    for i, nid in enumerate(tracer.name):
        if nid != mq_id:
            continue
        fv = tracer.nearest(i, fv_id)
        if fv >= 0:
            per_search[fv] = per_search.get(fv, 0) + 1
        rd = tracer.nearest(i, round_id)
        if rd >= 0:
            per_round[rd] = per_round.get(rd, 0) + 1
    for fv, p in ((i, tracer.notes[i]) for i, nid in enumerate(tracer.name) if nid == fv_id):
        used = per_search.get(fv, 0)
        if used > search_bound(p):
            problems.append(f"find_valuation at p={p} used {used} MQs > ceil(log2(10^{p}+1))")
    failed_rounds = [i for i in tracer.failed if tracer.name[i] == round_id]
    discarded_mqs = sum(per_round.get(i, 0) for i in failed_rounds)
    discarded_s = sum(tracer.end[i] - tracer.start[i] for i in failed_rounds) / 1e9

    mqs = calls("teacher.mq")
    if mqs != sum(r.mq for r in results):
        problems.append(f"traced pass made {mqs} MQs, untraced pass {sum(r.mq for r in results)}")
    if sum(per_search.values()) != sum(r.level_search_mqs for r in results):
        problems.append("MQs inside find_valuation differ from orchestrator-tagged MQs")
    if len(failed_rounds) != sum(r.escalations for r in results):
        problems.append("failed orchestrator rounds differ from the escalations in stats")
    learn_id = tracer.name_id("cli.learn")
    captured = [tracer.notes[i] for i, nid in enumerate(tracer.name) if nid == learn_id]
    captured = [stats for stats in captured if stats is not None]
    if captured and (
        sum(st.escalations for st in captured) != sum(r.escalations for r in results)
        or sum(st.instances_spawned for st in captured) != sum(r.instances for r in results)
    ):
        problems.append("RunStats of the traced sessions differ from the untraced stats files")
    for (s, _, a), (_, _, b) in zip(untraced, traced):
        if (a.mq, a.eq, a.hypothesis) != (b.mq, b.eq, b.hypothesis):
            problems.append(f"session {s.index} differs between the untraced and traced pass")

    entails_sites = ("possibilistic.entails", "teacher.entails", "lift.entails",
                     "classical.entails", "horn.entails")
    poss_entails_sites = ("teacher.poss_entails", "pac.poss_entails")
    untraced_p50 = statistics.median(dt for _, dt, _ in untraced)
    traced_p50 = statistics.median(dt for _, dt, _ in traced)
    overhead = statistics.median(b[1] / a[1] for a, b in zip(untraced, traced)) - 1
    values = {
        "cli.parse.self_s": self_s("cli.parse"),
        "cli.verify.self_s": self_s("cli.verify.poss", "cli.verify.horn"),
        "cli.write.self_s": self_s("cli.write"),
        "teacher.mq.calls": mqs,
        "teacher.mq.self_s": self_s("teacher.mq"),
        "teacher.eq.calls": calls("teacher.eq"),
        "teacher.eq.self_s": self_s("teacher.eq"),
        "teacher.eq.share": total_s("teacher.eq") / total_s("session"),
        "teacher.poss_equivalent.self_s": self_s("teacher.poss_equivalent"),
        "teacher.find_counterexample.self_s": self_s("teacher.find_counterexample"),
        "transcript.record.calls": calls("transcript.record"),
        "transcript.record.self_s": self_s("transcript.record"),
        "transcript.bytes": sum(r.transcript_bytes for r in results),
        "lift.rounds": calls("lift.round"),
        "lift.escalations": sum(r.escalations for r in results),
        "lift.instances": sum(r.instances for r in results),
        "lift.find_valuation.calls": calls("lift.find_valuation"),
        "lift.level_search_mqs": sum(r.level_search_mqs for r in results),
        "lift.find_valuation.max_mqs": max(per_search.values(), default=0),
        "lift.restart_discarded_mqs": discarded_mqs,
        "lift.restart_discarded_s": discarded_s,
        "lift.useful_mq_frac": 1 - discarded_mqs / mqs if mqs else 1.0,
        "classical.steps": sum(r.steps for r in results),
        "classical.base_mqs": sum(r.base_mqs for r in results),
        "classical.answer_eq_counterexample.calls": calls("classical.answer_eq_counterexample"),
        "classical.pending_hypothesis.calls": calls("classical.pending_hypothesis"),
        "classical.pending_hypothesis.self_s": self_s("classical.pending_hypothesis"),
        "possibilistic.poss_entails.calls": calls(*poss_entails_sites),
        "possibilistic.poss_entails.self_s": self_s(*poss_entails_sites),
        "possibilistic.cut.calls": calls("possibilistic.cut"),
        "possibilistic.cut.self_s": self_s("possibilistic.cut", "possibilistic.projection"),
        "possibilistic.entails_per_cut": (
            calls(*poss_entails_sites) / calls("possibilistic.cut")
            if calls("possibilistic.cut") else 0.0
        ),
        "possibilistic.poss_equivalent.self_s": self_s("teacher.poss_equivalent", "cli.verify.poss"),
        "possibilistic.val_of.calls": calls("teacher.val_of"),
        "horn.entails.calls": calls(*entails_sites),
        "horn.entails.self_s": self_s(*entails_sites),
        "horn.closure.calls": calls("horn.closure"),
        "horn.closure.self_s": self_s("horn.closure"),
        "horn.equivalent.self_s": self_s("possibilistic.equivalent", "teacher.equivalent", "cli.verify.horn"),
        "horn.kb_built": counted("horn.kb_built"),
        "valuation.lt.calls": counted("valuation.lt"),
        "valuation.new.calls": counted("valuation.new"),
        "pac.sample.calls": calls("pac.sample"),
        "pac.sampled_eqs": calls("pac.check"),
        "pac.label.self_s": self_s("pac.sample"),
        "pac.check.self_s": self_s("pac.check"),
        "pac.empirical_error.self_s": self_s("pac.empirical_error"),
        "trace.untraced_session_p50_s": untraced_p50,
        "trace.traced_session_p50_s": traced_p50,
        "trace.overhead_frac": overhead,
    }
    return {name: (values[name], UNITS[name]) for name, *_ in METRICS}, problems
