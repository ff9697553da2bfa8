"""Command-line sessions: learn, verify, oracle-check.

Exit codes separate failure families so CI can tell regressions from
misconfiguration:

* 0 - success; for ``learn``, the final hypothesis was re-verified equivalent
      to the target by the independent checker.
* 1 - the run finished but verification failed (a learner bug signal, or a
      PAC run that stopped at an approximation), or ``verify``/``oracle-check``
      found a discrepancy.
* 2 - unusable input: parse errors, bad flags, missing mode requirements.
* 3 - the oracle side gave out: scripted counterexamples exhausted or
      invalid, enumeration cap reached, query budget exceeded, a target
      finer than the 12-digit precision limit, or a violated learning
      protocol (such as an mq-only level search that makes no progress).

Every failure prints one ``error:`` line on stderr; no traceback escapes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classical import (
    EnumerationCapReached,
    HornEntailmentLearner,
    ProtocolError,
    QueryBudgetExceeded,
    clause_space,
    drive,
)
from .horn import (
    BRUTE_FORCE_CAP,
    HornSyntaxError,
    SignatureCapExceeded,
    equivalent,
    parse_clause,
    parse_horn_kb,
)
from .lift import (
    PrecisionTooLow,
    RunStats,
    learn_with_eq_enumeration,
    learn_with_mq_eq,
    learn_with_mq_levels,
)
from .pac import UniformClauseDistribution, pac_learn
from .possibilistic import (
    necessity,
    parse_poss_kb,
    parse_poss_clause,
    pi_k,
    poss_equivalent,
    val_of,
)
from .teacher import (
    STRATEGIES,
    ClassicalTeacher,
    PossibilisticTeacher,
    ScriptExhausted,
    TeacherError,
    find_classical_counterexample,
    find_counterexample,
)
from .valuation import ValuationError

MODES = ("mq-eq", "mq-only", "eq-only", "pac", "classical")

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3


class ConfigError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _is_possibilistic_text(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return "@" in line
    return True


def _load_script(path: str, possibilistic: bool):
    entries = []
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if possibilistic:
            entries.append(parse_poss_clause(line))
        else:
            entries.append(parse_clause(line))
    return entries


def _write_outputs(args, hypothesis, teacher, stats: RunStats) -> None:
    with open(args.out_hypothesis, "w", encoding="utf-8") as fh:
        text = str(hypothesis)
        fh.write(text + "\n" if text else text)
    teacher.transcript.write(args.out_transcript)
    record = {
        "mq_count": teacher.mq_count,
        "eq_count": teacher.eq_count,
        "instances_spawned": stats.instances_spawned,
        "escalations": stats.escalations,
        "wall_steps": stats.wall_steps,
    }
    with open(args.out_stats, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def cmd_learn(args) -> int:
    # mode requirements are checked before any teacher is constructed
    if args.mode == "mq-only" and args.precision is None:
        raise ConfigError("mq-only mode requires --precision")
    if args.cex_strategy == "scripted" and args.script is None:
        raise ConfigError("scripted strategy requires --script")
    possibilistic = args.mode != "classical"
    text = _read(args.target)
    if possibilistic and not _is_possibilistic_text(text):
        raise ConfigError(f"mode {args.mode} needs a possibilistic target (with @)")
    if not possibilistic and _is_possibilistic_text(text) and text.strip():
        raise ConfigError("classical mode needs a classical target (no @)")

    stats = RunStats()
    if possibilistic:
        target = parse_poss_kb(text)
        script = (
            _load_script(args.script, True)
            if args.cex_strategy == "scripted"
            else None
        )
        teacher = PossibilisticTeacher(
            target,
            cex_strategy=args.cex_strategy,
            rng_seed=args.seed,
            script=script,
        )
        if args.mode == "mq-eq":
            hypothesis = learn_with_mq_eq(
                teacher.signature, teacher.mq, teacher.eq, stats=stats
            )
        elif args.mode == "mq-only":
            hypothesis = learn_with_mq_levels(
                teacher.signature,
                args.precision,
                lambda f, v: teacher.mq(f, v, instance="mq-only"),
                max_antecedent=args.max_antecedent,
            )
        elif args.mode == "eq-only":
            hypothesis = learn_with_eq_enumeration(
                lambda kb: teacher.eq(kb, instance="enumeration"),
                teacher.signature,
                cap=args.cap,
            )
        elif args.mode == "pac":
            dist = UniformClauseDistribution(target, seed=args.seed)
            hypothesis = pac_learn(
                teacher.signature,
                dist,
                args.epsilon,
                args.delta,
                teacher.mq,
                stats=stats,
            )
        else:  # pragma: no cover - argparse restricts choices
            raise ConfigError(f"unknown mode {args.mode}")
        verified = poss_equivalent(hypothesis, target)
    else:
        target = parse_horn_kb(text)
        script = (
            _load_script(args.script, False)
            if args.cex_strategy == "scripted"
            else None
        )
        teacher = ClassicalTeacher(
            target, cex_strategy=args.cex_strategy, rng_seed=args.seed, script=script
        )
        learner = HornEntailmentLearner(teacher.signature)
        hypothesis = drive(
            learner,
            lambda c: teacher.mq(c, instance="learner"),
            lambda kb: teacher.eq(kb, instance="learner"),
        )
        stats.wall_steps = learner.steps
        verified = equivalent(hypothesis, target)

    _write_outputs(args, hypothesis, teacher, stats)
    status = "verified-equivalent" if verified else "NOT-EQUIVALENT"
    print(
        f"mode={args.mode} mqs={teacher.mq_count} eqs={teacher.eq_count} "
        f"instances={stats.instances_spawned} escalations={stats.escalations} "
        f"result={status}"
    )
    print(f"hypothesis: {args.out_hypothesis}")
    return EXIT_OK if verified else EXIT_INEQUIVALENT


def cmd_verify(args) -> int:
    text_a, text_b = _read(args.kb_a), _read(args.kb_b)
    poss_a, poss_b = _is_possibilistic_text(text_a), _is_possibilistic_text(text_b)
    if poss_a != poss_b:
        raise ConfigError("cannot compare a possibilistic KB with a classical one")
    if poss_a:
        witness = find_counterexample(parse_poss_kb(text_a), parse_poss_kb(text_b))
    else:
        witness = find_classical_counterexample(
            parse_horn_kb(text_a), parse_horn_kb(text_b)
        )
    if witness is None:
        print("equivalent")
        return EXIT_OK
    positive, clause = witness
    side = "first" if positive else "second"
    print(f"not equivalent; witness entailed only by the {side} KB: {clause}")
    return EXIT_INEQUIVALENT


def cmd_oracle_check(args) -> int:
    kb = parse_poss_kb(_read(args.kb))
    if len(kb.signature) > args.cap:
        raise ConfigError(
            f"signature size {len(kb.signature)} exceeds brute-force cap {args.cap}"
        )
    dist = pi_k(kb, cap=args.cap)
    checked = 0
    for phi in clause_space(sorted(kb.signature), min(2, len(kb.signature))):
        if checked >= args.budget:
            break
        checked += 1
        semantic = necessity(dist, phi)
        syntactic = val_of(kb, phi)
        if semantic != syntactic:
            print(
                f"DISAGREEMENT on {phi}: necessity={semantic} val={syntactic}",
                file=sys.stderr,
            )
            return EXIT_INEQUIVALENT
    print(f"ok: necessity(pi_K, phi) == val(phi, K) on {checked} clauses")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posshorn",
        description="Possibilistic Horn learning sessions and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run a learning session against a teacher")
    learn.add_argument("--mode", choices=MODES, required=True)
    learn.add_argument("--target", required=True, help="target KB file")
    learn.add_argument("--precision", type=int, default=None, help="mq-only grid precision")
    learn.add_argument(
        "--cex-strategy",
        choices=STRATEGIES,
        default="clause-exact",
    )
    learn.add_argument("--script", default=None, help="counterexample replay file")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--cap", type=int, default=100000, help="eq-only enumeration cap")
    learn.add_argument("--epsilon", type=float, default=0.1)
    learn.add_argument("--delta", type=float, default=0.05)
    learn.add_argument(
        "--max-antecedent", type=int, default=2, help="mq-only clause-size bound"
    )
    learn.add_argument("--out-hypothesis", default="hypothesis.out.pkb")
    learn.add_argument("--out-transcript", default="transcript.out.jsonl")
    learn.add_argument("--out-stats", default="stats.out.json")
    learn.set_defaults(func=cmd_learn)

    verify = sub.add_parser("verify", help="check two KB files for equivalence")
    verify.add_argument("kb_a")
    verify.add_argument("kb_b")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser(
        "oracle-check",
        help="cross-check cut-based val against the brute-force distribution",
    )
    oracle.add_argument("kb")
    oracle.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP)
    oracle.add_argument("--budget", type=int, default=5000, help="max clauses checked")
    oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, HornSyntaxError, ValuationError, SignatureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ScriptExhausted,
        TeacherError,
        EnumerationCapReached,
        QueryBudgetExceeded,
        PrecisionTooLow,
        ProtocolError,
    ) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
