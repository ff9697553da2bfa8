"""End-to-end command-line sessions and exit-code contracts."""

import importlib
import io
import json
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posshorn
import posshorn.cli as cli
import posshorn.possibilistic as possibilistic
from posshorn import parse_poss_clause
from posshorn.cli import main
from posshorn.pac import sample_size

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "mqeq_transcript.jsonl"
PAC_GOLDEN = {
    "hyp": GOLDEN.parent / "pac_hypothesis.pkb",
    "tr": GOLDEN.parent / "pac_transcript.jsonl",
    "st": GOLDEN.parent / "pac_stats.json",
}

CLASSICAL_GOLDEN = {
    "tr": GOLDEN.parent / "classical_transcript.jsonl",
    "st": GOLDEN.parent / "classical_stats.json",
}



def run_learn(tmp_path, *extra):
    out = {
        "hyp": tmp_path / "h.pkb",
        "tr": tmp_path / "t.jsonl",
        "st": tmp_path / "s.json",
    }
    code = main(
        [
            "learn",
            *extra,
            "--out-hypothesis",
            str(out["hyp"]),
            "--out-transcript",
            str(out["tr"]),
            "--out-stats",
            str(out["st"]),
        ]
    )
    return code, out


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and "error:" in err
    return err


class TestLearnCommand:
    def test_scripted_session_matches_golden_transcript(self, tmp_path):
        code, out = run_learn(
            tmp_path,
            "--mode",
            "mq-eq",
            "--target",
            str(DATA / "mqeq.pkb"),
            "--cex-strategy",
            "scripted",
            "--script",
            str(DATA / "mqeq.script"),
        )
        assert code == 0
        assert out["tr"].read_bytes() == GOLDEN.read_bytes()
        stats = json.loads(out["st"].read_text())
        assert stats == {
            "mq_count": 16,
            "eq_count": 5,
            "instances_spawned": 3,
            "escalations": 0,
            "wall_steps": 8,
        }

    def test_classical_session_matches_golden_outputs(self, tmp_path):
        code, out = run_learn(
            tmp_path, "--mode", "classical", "--target", str(DATA / "classical.hkb")
        )
        assert code == 0
        assert out["tr"].read_bytes() == CLASSICAL_GOLDEN["tr"].read_bytes()
        assert out["st"].read_bytes() == CLASSICAL_GOLDEN["st"].read_bytes()
        # classical membership queries carry no degree
        events = [json.loads(line) for line in out["tr"].read_text().splitlines()]
        assert {e["valuation"] for e in events} == {None}
        assert {e["event"] for e in events} == {"mq", "eq"}

    def test_pac_session_matches_golden_outputs(self, tmp_path):
        code, out = run_learn(
            tmp_path,
            "--mode",
            "pac",
            "--target",
            str(DATA / "naive_collapse.pkb"),
            "--seed",
            "3",
            "--epsilon",
            "0.05",
            "--delta",
            "0.05",
        )
        assert code == 0
        for key, golden in PAC_GOLDEN.items():
            assert out[key].read_bytes() == golden.read_bytes(), golden.name

    def test_repeated_runs_byte_identical(self, tmp_path):
        transcripts = []
        for i in range(2):
            sub = tmp_path / f"run{i}"
            sub.mkdir()
            code, out = run_learn(
                sub,
                "--mode",
                "mq-eq",
                "--target",
                str(DATA / "hypothesis.pkb"),
                "--cex-strategy",
                "adversarial-low",
                "--seed",
                "42",
            )
            assert code == 0
            transcripts.append(out["tr"].read_bytes())
        assert transcripts[0] == transcripts[1]

    def test_mq_only_session(self, tmp_path):
        code, out = run_learn(
            tmp_path,
            "--mode",
            "mq-only",
            "--precision",
            "1",
            "--target",
            str(DATA / "hypothesis.pkb"),
        )
        assert code == 0
        assert "p -> q1 @ 0.3" in out["hyp"].read_text()

    def test_mq_only_requires_precision(self, tmp_path):
        code, _ = run_learn(
            tmp_path, "--mode", "mq-only", "--target", str(DATA / "hypothesis.pkb")
        )
        assert code == 2

    def test_eq_only_session_small_target(self, tmp_path):
        target = tmp_path / "tiny.pkb"
        target.write_text("x0 -> x1 @ 0.5\n")
        code, _ = run_learn(
            tmp_path, "--mode", "eq-only", "--target", str(target), "--cap", "100000"
        )
        assert code == 0

    def test_eq_only_cap_exhaustion(self, tmp_path):
        code, _ = run_learn(
            tmp_path,
            "--mode",
            "eq-only",
            "--target",
            str(DATA / "hypothesis.pkb"),
            "--cap",
            "3",
        )
        assert code == 3

    def test_pac_session(self, tmp_path):
        code, _ = run_learn(
            tmp_path,
            "--mode",
            "pac",
            "--target",
            str(DATA / "hypothesis.pkb"),
            "--epsilon",
            "0.1",
            "--delta",
            "0.05",
            "--seed",
            "7",
        )
        assert code in (0, 1)  # sampling may stop at an approximation

    def test_classical_session(self, tmp_path):
        target = tmp_path / "classic.kb"
        target.write_text("a -> b\nb -> c\n")
        code, out = run_learn(tmp_path, "--mode", "classical", "--target", str(target))
        assert code == 0
        assert "b -> c" in out["hyp"].read_text()

    def test_script_exhaustion_exits_3(self, tmp_path):
        script = tmp_path / "short.script"
        script.write_text("p -> q1 @ 0.1\n")
        code, _ = run_learn(
            tmp_path,
            "--mode",
            "mq-eq",
            "--target",
            str(DATA / "mqeq.pkb"),
            "--cex-strategy",
            "scripted",
            "--script",
            str(script),
        )
        assert code == 3

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.pkb"
        bad.write_text("p -> q1 @ nonsense\n")
        code, _ = run_learn(tmp_path, "--mode", "mq-eq", "--target", str(bad))
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code, _ = run_learn(
            tmp_path, "--mode", "mq-eq", "--target", str(tmp_path / "nope.pkb")
        )
        assert code == 2


class NegativeLabels:
    """A sampler that labels every example negative, even tautologies."""

    def __init__(self, target, seed=0):
        self.draws = 0

    def sample(self):
        self.draws += 1
        return parse_poss_clause("p -> p @ 0.5"), False


class TestOracleFailuresExit3:
    """Limits and protocol breaks exit 3 with one ``error:`` line."""

    def test_precision_beyond_limit(self, tmp_path, capsys):
        target = tmp_path / "fine.pkb"
        target.write_text("a -> b @ 0.0000000000001\n")
        code, _ = run_learn(tmp_path, "--mode", "mq-eq", "--target", str(target))
        assert code == 3
        assert_one_error_line(capsys)

    def test_protocol_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "UniformClauseDistribution", NegativeLabels)
        target = str(DATA / "mqeq.pkb")
        code, _ = run_learn(tmp_path, "--mode", "pac", "--target", target)
        assert code == 3
        assert_one_error_line(capsys)


class TestConfigErrorsExit2:
    """Unusable scripts and flags exit 2 with one ``error:`` line."""

    def test_script_line_with_zero_degree(self, tmp_path, capsys):
        script = tmp_path / "zero.script"
        script.write_text("# replay\n\np -> q1 @ 0\n")
        code, _ = run_learn(
            tmp_path,
            "--mode",
            "mq-eq",
            "--target",
            str(DATA / "mqeq.pkb"),
            "--cex-strategy",
            "scripted",
            "--script",
            str(script),
        )
        assert code == 2
        assert "line 3:" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "flag,value",
        [("--epsilon", "0"), ("--epsilon", "1.5"), ("--delta", "0"), ("--delta", "1")],
    )
    def test_pac_bounds_out_of_range(self, tmp_path, capsys, flag, value):
        target = str(DATA / "mqeq.pkb")
        code, _ = run_learn(tmp_path, "--mode", "pac", "--target", target, flag, value)
        assert code == 2
        assert_one_error_line(capsys)

    def test_pac_epsilon_with_infinite_sample_size(self, tmp_path, capsys):
        target = str(DATA / "hypothesis.pkb")
        code, _ = run_learn(
            tmp_path, "--mode", "pac", "--target", target, "--epsilon", "5e-324",
            "--delta", "0.5",
        )
        assert code == 2
        assert "--epsilon" in assert_one_error_line(capsys)

    # 4e-5 lies just above the ceiling at the default --delta
    @pytest.mark.parametrize("epsilon,delta", [("1e-12", "0.5"), ("4e-5", "0.05")])
    def test_pac_sample_size_above_the_ceiling(self, tmp_path, capsys, epsilon, delta):
        assert sample_size(float(epsilon), float(delta), 1) > cli.PAC_SAMPLE_CEILING
        target = str(DATA / "hypothesis.pkb")
        code, out = run_learn(
            tmp_path, "--mode", "pac", "--target", target, "--epsilon", epsilon, "--delta", delta
        )
        assert code == 2
        assert "ceiling" in assert_one_error_line(capsys)
        assert not out["tr"].exists()  # refused before the first query

    def test_pac_sample_size_just_below_the_ceiling_runs(self, tmp_path):
        assert sample_size(5e-5, 0.05, 1) <= cli.PAC_SAMPLE_CEILING
        target = str(DATA / "hypothesis.pkb")
        code, _ = run_learn(
            tmp_path, "--mode", "pac", "--target", target, "--epsilon", "5e-5", "--delta", "0.05"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["learn", "--mode", "eq-only", "--cap", "0"], "--cap"),
            (["learn", "--mode", "mq-only", "--precision", "0"], "--precision"),
            (
                ["learn", "--mode", "mq-only", "--precision", "1", "--max-antecedent=-1"],
                "--max-antecedent",
            ),
            (["oracle-check", "--budget", "0"], "--budget"),
            (["oracle-check", "--cap=-1"], "--cap"),
        ],
        ids=["learn-cap", "precision", "max-antecedent", "oracle-budget", "oracle-cap"],
    )
    def test_integer_flag_below_its_least_value(self, tmp_path, capsys, argv, flag):
        target = str(DATA / "hypothesis.pkb")
        if argv[0] == "learn":
            outs = [f"--out-{n}={tmp_path / n}" for n in ("hypothesis", "transcript", "stats")]
            argv = [*argv, "--target", target, *outs]
        else:
            argv = [*argv, target]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: argument {flag}: " in errors[0]
        assert not (tmp_path / "transcript").exists()

    def test_unicode_digit_in_kb_exits_2(self, tmp_path, capsys):
        ascii_kb, arabic_kb = tmp_path / "a.pkb", tmp_path / "b.pkb"
        ascii_kb.write_text("p -> q @ 0.3\n", encoding="utf-8")
        arabic_kb.write_text("p -> q @ 0.\u0663\n", encoding="utf-8")
        assert main(["verify", str(ascii_kb), str(arabic_kb)]) == 2
        assert "line 1:" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("output", ["hypothesis", "transcript", "stats"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, output):
        sessions = []
        learn = cli.learn_with_mq_eq
        monkeypatch.setattr(
            cli, "learn_with_mq_eq", lambda *a, **kw: sessions.append(1) or learn(*a, **kw)
        )
        paths = {name: tmp_path / name for name in ("hypothesis", "transcript", "stats")}
        paths[output] = tmp_path / "missing" / output
        argv = ["learn", "--mode", "mq-eq", "--target", str(DATA / "mqeq.pkb")]
        for name, path in paths.items():
            argv += [f"--out-{name}", str(path)]
        assert main(argv) == 2
        err = assert_one_error_line(capsys)
        assert err.startswith(f"error: cannot write {paths[output]}: ")
        # the transcript is opened before the first query, the other two
        # files after the session
        assert sessions == ([] if output == "transcript" else [1])

    def test_target_not_utf8_exits_2(self, tmp_path, capsys):
        target = tmp_path / "k.pkb"
        target.write_bytes(b"a -> b\xff @ 0.5\n")
        code, _ = run_learn(tmp_path, "--mode", "mq-eq", "--target", str(target))
        assert code == 2
        assert f"cannot read {target}" in assert_one_error_line(capsys)

    def test_verify_kb_not_utf8_exits_2(self, tmp_path, capsys):
        kb = tmp_path / "k.pkb"
        kb.write_bytes(b"a -> b\xff @ 0.5\n")
        assert main(["verify", str(DATA / "mqeq.pkb"), str(kb)]) == 2
        assert f"cannot read {kb}" in assert_one_error_line(capsys)


class TestColdStart:
    def test_cli_import_leaves_out_dataclasses_inspect_fractions(self):
        """A fresh interpreter importing the CLI loads none of these; the
        modules loaded before the import (by ``site``, say) do not count."""
        src = Path(posshorn.__file__).resolve().parent.parent
        code = (
            "import sys; before = set(sys.modules); import posshorn.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        added = subprocess.run(
            [sys.executable, "-c", code],
            cwd=src,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert "posshorn.cli" in added
        assert not {"dataclasses", "inspect", "fractions"} & set(added)


class TestVerifyCommand:
    def test_rejects_single_cut_collapse_with_witness(self, capsys):
        code = main(
            ["verify", str(DATA / "mqeq.pkb"), str(DATA / "naive_collapse.pkb")]
        )
        assert code == 1
        assert "p -> q2 @ 0.7" in capsys.readouterr().out

    def test_rejects_projection_incomplete(self, capsys):
        code = main(
            ["verify", str(DATA / "mqeq.pkb"), str(DATA / "projection_incomplete.pkb")]
        )
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_accepts_identical(self):
        assert main(["verify", str(DATA / "mqeq.pkb"), str(DATA / "mqeq.pkb")]) == 0

    def test_accepts_redundant_extension(self, tmp_path):
        extended = tmp_path / "ext.pkb"
        extended.write_text(DATA.joinpath("mqeq.pkb").read_text() + "p -> q1 @ 0.2\n")
        assert main(["verify", str(DATA / "mqeq.pkb"), str(extended)]) == 0

    def test_mixed_kinds_exit_2(self, tmp_path):
        classic = tmp_path / "c.kb"
        classic.write_text("a -> b\n")
        assert main(["verify", str(DATA / "mqeq.pkb"), str(classic)]) == 2

    def test_classical_pair(self, tmp_path):
        a = tmp_path / "a.kb"
        b = tmp_path / "b.kb"
        a.write_text("a -> b\nb -> c\n")
        b.write_text("a -> b\nb -> c\na -> c\n")
        assert main(["verify", str(a), str(b)]) == 0

    @pytest.mark.parametrize(
        "other,code",
        [("a -> a\n", 0), ("a -> b\n", 1), ("a -> a @ 0.5\n", 0), ("a -> b @ 0.5\n", 1), ("", 0)],
    )
    def test_file_with_no_clauses_takes_the_other_kind(self, tmp_path, other, code):
        empty, kb = tmp_path / "empty.kb", tmp_path / "other.kb"
        empty.write_text("# no clauses\n\n")
        kb.write_text(other)
        assert main(["verify", str(empty), str(kb)]) == code
        assert main(["verify", str(kb), str(empty)]) == code


# clause lines over a, b, c, tautologies included; degrees on the 0.1 grid
clause_lines = st.builds(
    lambda ant, cons, degree: f"{','.join(sorted(ant)) or 'true'} -> {cons} @ {degree}",
    st.sets(st.sampled_from("abc"), max_size=2),
    st.sampled_from(["a", "b", "c", "false"]),
    st.sampled_from(["0.3", "0.5", "1.0"]),
)


class TestLearnThenVerify:
    """After ``learn`` exits 0, ``verify HYP TARGET`` and ``oracle-check HYP``
    exit 0, in every mode."""

    RUNS = [
        ["--mode", "mq-eq", "--cex-strategy", "clause-exact"],
        ["--mode", "mq-eq", "--cex-strategy", "adversarial-low"],
        ["--mode", "mq-eq", "--cex-strategy", "random"],
        ["--mode", "mq-eq", "--cex-strategy", "scripted"],
        ["--mode", "classical"],
        ["--mode", "mq-only", "--precision", "1"],
        ["--mode", "eq-only"],
        ["--mode", "pac"],
    ]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(clause_lines, max_size=3))
    # targets equivalent to the empty KB
    @example([])
    @example(["a -> a @ 1.0"])
    @example(["a -> a @ 0.5", "a,b -> b @ 0.3"])
    # a classical hypothesis, which oracle-check reads at degree 1
    @example(["a -> b @ 1.0", "b,c -> d @ 0.5"])
    def test_verify_accepts_what_learn_wrote(self, tmp_path_factory, lines):
        work = tmp_path_factory.mktemp("round-trip")
        poss, classical = work / "target.pkb", work / "target.hkb"
        poss.write_text("".join(f"{line}\n" for line in lines))
        classical.write_text("".join(f"{line.split(' @ ')[0]}\n" for line in lines))
        outs = [f"--out-{n}={work / n}" for n in ("hypothesis", "transcript", "stats")]
        for run in self.RUNS:
            target = classical if "classical" in run else poss
            argv = ["learn", *run, "--target", str(target), *outs]
            if "scripted" in run:
                argv += ["--script", str(poss)]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                if main(argv) != 0:
                    continue
                code = main(["verify", str(work / "hypothesis"), str(target)])
                checked = main(["oracle-check", str(work / "hypothesis")])
            assert (code, checked) == (0, 0), (run, lines)


class TestOracleCheckCommand:
    def test_worked_target_agrees(self):
        assert main(["oracle-check", str(DATA / "hypothesis.pkb")]) == 0

    def test_random_kbs_agree_100_seeds(self, tmp_path):
        import random

        from helpers import random_poss_kb

        for seed in range(100):
            rng = random.Random(seed)
            kb = random_poss_kb(rng, 4, 5, precision=2)
            path = tmp_path / f"kb{seed}.pkb"
            path.write_text(str(kb) + "\n" if kb.clauses else "")
            assert main(["oracle-check", str(path)]) == 0, f"seed {seed}"

    def test_cap_guard_exits_2(self, tmp_path):
        wide = tmp_path / "wide.pkb"
        wide.write_text(
            "\n".join(f"v{i} -> v{i + 1} @ 0.5" for i in range(20)) + "\n"
        )
        assert main(["oracle-check", str(wide), "--cap", "8"]) == 2

    def test_corrupted_val_is_caught(self, monkeypatch):
        # negative control: a wrong degree computation must trip the check
        import posshorn.cli as cli
        from posshorn import Valuation

        real = cli.val_of

        def corrupted(kb, phi):
            degree = real(kb, phi)
            return Valuation.parse("0.9") if degree.is_zero else degree

        monkeypatch.setattr(cli, "val_of", corrupted)
        assert main(["oracle-check", str(DATA / "hypothesis.pkb")]) == 1


def package_exceptions() -> list[type]:
    """Every exception class defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(posshorn.__path__):
        module = importlib.import_module(f"posshorn.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    return found


# the exit code of each failure family in the cli module docstring
DOCUMENTED_EXITS = {
    "ConfigError": 2,
    "HornSyntaxError": 2,
    "ValuationError": 2,
    "SignatureCapExceeded": 2,
    "ScriptExhausted": 3,
    "TeacherError": 3,
    "EnumerationCapReached": 3,
    "PrecisionTooLow": 3,
    "ProtocolError": 3,
}


class TestErrorTaxonomy:
    """No exception defined in the package escapes ``main`` unmapped."""

    def test_documented_names_exist(self):
        assert set(DOCUMENTED_EXITS) <= {e.__name__ for e in package_exceptions()}

    @pytest.mark.parametrize("exc", package_exceptions(), ids=lambda e: e.__name__)
    def test_exception_reaches_its_exit_code(self, exc, tmp_path, capsys, monkeypatch):
        kb = tmp_path / "kb.pkb"
        kb.write_text("p -> q @ 0.5\n")

        def fail(*args):
            raise exc("injected")

        if exc.__name__ in DOCUMENTED_EXITS:
            # raised from inside a command
            monkeypatch.setattr(cli, "cmd_verify", fail)
            expected = DOCUMENTED_EXITS[exc.__name__]
        else:
            # an undocumented class must be a ValueError that input
            # parsing turns into a syntax error
            assert issubclass(exc, ValueError), f"{exc.__name__} has no exit code"
            monkeypatch.setattr(possibilistic, "parse_poss_clause", fail)
            expected = 2
        assert main(["verify", str(kb), str(kb)]) == expected
        assert "injected" in assert_one_error_line(capsys)


# Lines of KB and script text: clauses with and without a degree, comments,
# and odd ones: a stray "@", "->" twice and inside a name, exponents, "0.",
# a non-ASCII digit, a byte-order mark, degrees outside (0, 1].
CLAUSES = [
    "a -> b @ 0.5",
    "b, c -> a @ 0.25",
    "true -> c @ 1",
    "a, b -> false @ 0.3",
    "c -> c @ 0.1",
    "a -> b",
    "b, c -> false",
    "# a comment",
    "a -> c @ 0.7  # a trailing comment",
    "",
]
ODD = [
    "@",
    "a -> b @",
    "a -> b -> c @ 0.2",
    "a->b -> c @ 0.4",
    "a -> b @ 1e-3",
    "a -> b @ 5E-1",
    "a -> b @ 0.",
    "a -> b @ 0.\u0663",
    "\ufeffa -> b @ 0.5",
    "a -> b @ 0",
    "a -> b @ 1.5",
]
names = st.sampled_from(["a", "b", "c", "d"])
decimals = st.text("0123456789", min_size=1, max_size=40).map(lambda d: "0." + d)
generated = st.builds(
    lambda ant, cons, degree: f"{', '.join(ant) or 'true'} -> {cons} @ {degree}",
    st.lists(names, max_size=3, unique=True),
    st.one_of(names, st.just("false")),
    decimals,
)
kb_texts = st.builds(
    lambda bom, lines, end: bom + end.join(lines),
    st.sampled_from(["", "", "", "\ufeff"]),
    st.lists(
        st.one_of(generated, st.sampled_from(CLAUSES), st.sampled_from(CLAUSES + ODD)),
        max_size=5,
    ),
    st.sampled_from(["\n", "\r\n"]),
)


class TestFuzzedInputs:
    """Any KB or script text ends in a documented exit code, with at most
    one error line and no traceback."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(kb_texts, kb_texts)
    @example("a -> b @ 0." + "1" * 40, "a -> b @ 0.5")
    def test_every_command_exits_cleanly(self, tmp_path_factory, target, script):
        work = tmp_path_factory.mktemp("fuzz")
        kb, other = work / "target.kb", work / "script.kb"
        kb.write_text(target, encoding="utf-8")
        other.write_text(script, encoding="utf-8")
        outs = [
            f"--out-{name}={work / name}" for name in ("hypothesis", "transcript", "stats")
        ]
        commands = [
            ["learn", "--mode", "mq-eq", "--target", str(kb), *outs],
            ["learn", "--mode", "classical", "--target", str(kb), *outs],
            ["learn", "--mode", "mq-eq", "--target", str(kb), *outs,
             "--cex-strategy", "scripted", "--script", str(other)],
            ["verify", str(kb), str(other)],
            ["oracle-check", str(kb)],
        ]
        for argv in commands:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, argv
