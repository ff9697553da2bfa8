"""Command-line sessions: learn, verify, oracle-check.

Exit codes separate failure families so CI can tell regressions from
misconfiguration:

* 0 - success; for ``learn``, the final hypothesis was re-checked equivalent
      to the target.  For a possibilistic target the check is
      ``poss_equivalent``, the same :func:`find_counterexample` scan as the
      teacher's EQ with the KBs swapped, so it is not independent of the
      oracle; a classical target is checked by ``horn.equivalent``.  The
      independent cross-check is ``oracle-check``.
* 1 - the run finished but verification failed (a learner bug signal, or a
      PAC run that stopped at an approximation), or ``verify``/``oracle-check``
      found a discrepancy.
* 2 - unusable input: parse errors, bad flags, missing mode requirements,
      a pac run whose first sampled EQ would exceed ``PAC_SAMPLE_CEILING``
      examples, or an output file that cannot be written.
* 3 - the oracle side gave out: scripted counterexamples exhausted or
      invalid, enumeration cap reached, a target finer than the 12-digit
      precision limit, or a violated learning protocol (such as an mq-only
      level search that makes no progress).

Every failure prints one ``error:`` line on stderr; no traceback escapes.

``learn`` opens its transcript before the first query and writes each
event's line as the event happens, so after exit 3 the file holds the
queries answered up to the failure.  The hypothesis and stats files are
written only when the session completes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .classical import (
    EnumerationCapReached,
    HornEntailmentLearner,
    ProtocolError,
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
    parse_lines,
)
from .lift import (
    PrecisionTooLow,
    RunStats,
    learn_with_eq_enumeration,
    learn_with_mq_eq,
    learn_with_mq_levels,
)
from .pac import UniformClauseDistribution, check_rates, pac_learn, sample_size
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
    _at_one,
    find_classical_counterexample,
    find_counterexample,
)
from .transcript import Transcript
from .valuation import ValuationError

MODES = ("mq-eq", "mq-only", "eq-only", "pac", "classical")

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3

# The most examples a pac run may draw for its first sampled EQ: 1,000 times
# the largest first sample in use (74, at epsilon = delta = 0.05).  A run at
# the ceiling finishes in seconds; 1e-12 would draw 1.4e12 examples.
PAC_SAMPLE_CEILING = 1000 * 74


class ConfigError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _is_possibilistic_text(text: str) -> Optional[bool]:
    """Whether the first clause line of a KB text carries a degree (``@``);
    None for a text with no clause lines, which reads as either kind."""
    lines = parse_lines(text, str)
    return "@" in lines[0] if lines else None


def _load_script(path: str, possibilistic: bool):
    return parse_lines(_read(path), parse_poss_clause if possibilistic else parse_clause)


@contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """The output file at ``path``, open for text; an OSError opening,
    writing or closing it is a :class:`ConfigError`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_outputs(args, hypothesis, teacher, stats: RunStats) -> None:
    """The hypothesis and stats files; the transcript is already written."""
    with _writing(args.out_hypothesis) as fh:
        text = str(hypothesis)
        fh.write(text + "\n" if text else text)
    record = {
        "mq_count": teacher.mq_count,
        "eq_count": teacher.eq_count,
        "instances_spawned": stats.instances_spawned,
        "escalations": stats.escalations,
        "wall_steps": stats.wall_steps,
    }
    with _writing(args.out_stats) as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def cmd_learn(args) -> int:
    # mode requirements are checked before any teacher is constructed
    if args.mode == "mq-only" and args.precision is None:
        raise ConfigError("mq-only mode requires --precision")
    if args.cex_strategy == "scripted" and args.script is None:
        raise ConfigError("scripted strategy requires --script")
    if args.mode == "pac":
        try:
            check_rates(args.epsilon, args.delta)
        except ValueError as exc:
            raise ConfigError(f"pac mode needs usable --epsilon and --delta: {exc}")
        first = sample_size(args.epsilon, args.delta, 1)
        if first > PAC_SAMPLE_CEILING:
            raise ConfigError(
                f"--epsilon {args.epsilon} and --delta {args.delta} give a first sampled EQ "
                f"of {first} examples, above the ceiling of {PAC_SAMPLE_CEILING}"
            )
    possibilistic = args.mode != "classical"
    text = _read(args.target)
    kind = _is_possibilistic_text(text)
    if possibilistic and kind is False:
        raise ConfigError(f"mode {args.mode} needs a possibilistic target (with @)")
    if not possibilistic and kind:
        raise ConfigError("classical mode needs a classical target (no @)")
    target = parse_poss_kb(text) if possibilistic else parse_horn_kb(text)
    script = (
        _load_script(args.script, possibilistic)
        if args.cex_strategy == "scripted"
        else None
    )

    # the transcript is streamed: each event's line is written as it happens
    stats = RunStats()
    teacher_class = PossibilisticTeacher if possibilistic else ClassicalTeacher
    with _writing(args.out_transcript) as out:
        teacher = teacher_class(
            target,
            cex_strategy=args.cex_strategy,
            rng_seed=args.seed,
            script=script,
            transcript=Transcript(out),
        )
        hypothesis = _learn(args, target, teacher, stats)
    if possibilistic:
        verified = poss_equivalent(hypothesis, target)
    else:
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


def _learn(args, target, teacher, stats: RunStats):
    """The hypothesis the learner of ``args.mode`` finds against the teacher."""
    if args.mode == "classical":
        learner = HornEntailmentLearner(
            teacher.signature, lambda c: teacher.mq(c, instance="learner")
        )
        hypothesis = drive(learner, lambda kb: teacher.eq(kb, instance="learner"))
        stats.wall_steps = learner.mqs + learner.eqs
        return hypothesis
    if args.mode == "mq-eq":
        return learn_with_mq_eq(teacher.signature, teacher.mq, teacher.eq, stats=stats)
    if args.mode == "mq-only":
        return learn_with_mq_levels(
            teacher.signature,
            args.precision,
            lambda f, v: teacher.mq(f, v, instance="mq-only"),
            max_antecedent=args.max_antecedent,
        )
    if args.mode == "eq-only":
        return learn_with_eq_enumeration(
            lambda kb: teacher.eq(kb, instance="enumeration"),
            teacher.signature,
            cap=args.cap,
        )
    if args.mode == "pac":
        dist = UniformClauseDistribution(target, seed=args.seed)
        return pac_learn(
            teacher.signature, dist, args.epsilon, args.delta, teacher.mq, stats=stats
        )
    raise ConfigError(f"unknown mode {args.mode}")  # pragma: no cover - argparse choices


def cmd_verify(args) -> int:
    text_a, text_b = _read(args.kb_a), _read(args.kb_b)
    poss_a, poss_b = _is_possibilistic_text(text_a), _is_possibilistic_text(text_b)
    if None not in (poss_a, poss_b) and poss_a != poss_b:
        raise ConfigError("cannot compare a possibilistic KB with a classical one")
    # a file with no clauses takes the other's kind; two such files are equivalent
    possibilistic = poss_b if poss_a is None else poss_a
    if possibilistic:
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
    text = _read(args.kb)
    # a classical file holds each clause at degree 1, as the teacher reads it
    classical = _is_possibilistic_text(text) is False
    kb = _at_one(parse_horn_kb(text)) if classical else parse_poss_kb(text)
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


def _at_least(low: int):
    """An argparse type for integers >= low: a bad value exits 2."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # non-integers read "invalid int value", as before
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posshorn",
        description="Possibilistic Horn learning sessions and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run a learning session against a teacher")
    learn.add_argument("--mode", choices=MODES, required=True)
    learn.add_argument("--target", required=True, help="target KB file")
    learn.add_argument("--precision", type=_at_least(1), help="mq-only grid precision")
    learn.add_argument(
        "--cex-strategy",
        choices=STRATEGIES,
        default="clause-exact",
    )
    learn.add_argument("--script", default=None, help="counterexample replay file")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--cap", type=_at_least(1), default=100000, help="eq-only enumeration cap")
    learn.add_argument("--epsilon", type=float, default=0.1)
    learn.add_argument("--delta", type=float, default=0.05)
    learn.add_argument(
        "--max-antecedent", type=_at_least(0), default=2, help="mq-only clause-size bound"
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
    oracle.add_argument("--cap", type=_at_least(0), default=BRUTE_FORCE_CAP)
    oracle.add_argument("--budget", type=_at_least(1), default=5000, help="max clauses checked")
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
        PrecisionTooLow,
        ProtocolError,
    ) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
