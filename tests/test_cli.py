"""End-to-end command-line sessions and exit-code contracts."""

import json
from pathlib import Path

import posshorn.cli as cli
from posshorn import parse_poss_clause
from posshorn.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "mqeq_transcript.jsonl"


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
            "wall_steps": stats["wall_steps"],
        }

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

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and "error:" in err

    def test_precision_beyond_limit(self, tmp_path, capsys):
        target = tmp_path / "fine.pkb"
        target.write_text("a -> b @ 0.0000000000001\n")
        code, _ = run_learn(tmp_path, "--mode", "mq-eq", "--target", str(target))
        assert code == 3
        self.assert_one_error_line(capsys)

    def test_protocol_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "UniformClauseDistribution", NegativeLabels)
        target = str(DATA / "mqeq.pkb")
        code, _ = run_learn(tmp_path, "--mode", "pac", "--target", target)
        assert code == 3
        self.assert_one_error_line(capsys)


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
