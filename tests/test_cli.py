import io
import os
import re
import subprocess
import sys

import pytest

from polsat import cli
from polsat.bench import run_file
from polsat.cli import main
from polsat.external import ENV_REGISTRY, register
from polsat.engine import Verdict
from polsat.portfolio import RunRecord, SolverSpec, run_all
from polsat.formulas import parse
from polsat.lasso import LassoWord, evaluate, parse_evidence

from conftest import UNDECIDED, child_env, sh_stub

TIME_RE = re.compile(r"^eclipse time: \d+(\.\d+)?s$")


@pytest.fixture(autouse=True)
def isolated_registry(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_REGISTRY, str(tmp_path / "registry.txt"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestOneShot:
    def test_sat_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "a U b")
        assert code == 0
        assert out[0] == "sat"
        assert out[1].startswith("from ")
        assert TIME_RE.match(out[2])
        assert len(out) == 3

    def test_unsat_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "p & !p")
        assert code == 0
        assert out[0] == "unsat"

    def test_evidence_flag_inserts_line_two(self, capsys):
        code, out, _ = run_cli(capsys, "-e", "a U b")
        assert code == 0
        assert out[0] == "sat"
        word = parse_evidence(out[1])
        assert evaluate(word, parse("a U b"))
        assert out[2].startswith("from ")
        assert TIME_RE.match(out[3])

    def test_timeout_beyond_the_platform_wait_limit(self, capsys):
        code, out, _ = run_cli(capsys, "--timeout", "1e300", "a U b")
        assert code == 0
        assert out[0] == "sat"

    def test_evidence_flag_ignored_on_unsat(self, capsys):
        code, out, _ = run_cli(capsys, "-e", "p & !p")
        assert code == 0
        assert out[0] == "unsat"
        assert out[1].startswith("from ")
        assert len(out) == 3

    def test_parse_error_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "a U )")
        assert code == 1
        assert "position" in err
        code, out, err = run_cli(capsys, "(" * 4_000 + "a" + ")" * 4_000)
        assert code == 1
        assert "nested deeper" in err

    def test_all_timeout_exits_two(self, capsys):
        # No internal solver decides UNDECIDED within a tiny timeout, so the
        # race ends with nobody answering.
        code, out, _ = run_cli(capsys, "--timeout", "0.05", UNDECIDED)
        assert code == 2
        assert out[0] == "unknown"
        assert out[1] == "from none"
        assert TIME_RE.match(out[2])

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "-zz", "a")
        assert code == 1
        assert "usage" in err


class TestPromptMode:
    def test_prompt_then_verdict(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a U b\n"))
        code, out, _ = run_cli(capsys)
        assert code == 0
        assert out[0] == "please input the formula:"
        assert out[1] == "sat"
        assert out[2].startswith("from ")

    def test_eof_is_quiet_success(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, _ = run_cli(capsys)
        assert code == 0
        assert out == ["please input the formula:"]


class TestSeparateMode:
    def test_lines_fastest_first(self, capsys):
        code, out, _ = run_cli(capsys, "-s", "a U b")
        assert code == 0
        line_re = re.compile(r"^(tableau|lasso|shortcut): (sat|unsat|unknown)\t\d+(\.\d+)?s$")
        assert len(out) == 3
        assert all(line_re.match(line) for line in out)
        times = [float(line.rsplit("\t", 1)[1][:-1]) for line in out]
        assert times == sorted(times)

    def test_with_evidence(self, capsys):
        code, out, _ = run_cli(capsys, "-s", "-e", "a U b")
        assert code == 0
        # every solver line may be followed by one evidence line
        solver_lines = [l for l in out if ":" in l]
        assert len(solver_lines) == 3
        for line in out:
            if ":" not in line:
                assert evaluate(parse_evidence(line), parse("a U b"))

    def test_disagreement_is_reported(self, capsys, monkeypatch):
        def stub(name, verdict):
            return SolverSpec(name, "external", lambda *_: RunRecord(name, verdict, 0.0))

        never_b = LassoWord((), (frozenset(),))  # b never holds, so a U b fails
        solvers = [stub("yes", Verdict.sat(never_b)), stub("no", Verdict.unsat())]
        monkeypatch.setattr(cli, "_solver_set", lambda: solvers)
        code, out, _ = run_cli(capsys, "-s", "-e", "a U b")
        assert code == 0
        assert out[:2] == ["yes: sat\t0s", "no: unsat\t0s"]
        assert out[2:] == [
            "disagreement: sat from yes; unsat from no; invalid evidence from yes"
        ]


class TestBatchMode:
    def test_empty_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "empty.txt"
        src.write_text("")
        code, out, _ = run_cli(capsys, "-sm", str(src))
        assert code == 0
        assert out[-1] == "The generated file is output.txt."
        totals = out[:-1]
        assert len(totals) == 3
        assert all(line.endswith("\t0s") for line in totals)
        assert (tmp_path / "output.txt").exists()

    def test_small_batch(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "f.txt"
        src.write_text("a U b\nG p -> F p\n")
        code, out, _ = run_cli(capsys, "-sm", str(src), "--timeout", "5")
        assert code == 0
        assert out[-1] == "The generated file is output.txt."

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "-sm", str(tmp_path / "nope.txt"))
        assert code == 1
        assert err.startswith(f"cannot read {tmp_path / 'nope.txt'}: ")

    def test_file_that_is_not_utf8_exits_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.ltl").write_bytes(b"a U b\n\xff\xfe bad\n")
        code, out, err = run_cli(capsys, "-sm", "bin.ltl")
        assert code == 1
        assert out == []
        assert err.startswith("cannot read bin.ltl: ")
        assert not (tmp_path / "output.txt").exists()

    def test_byte_order_mark_is_not_part_of_the_first_formula(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bom.ltl").write_bytes(b"\xef\xbb\xbfa U b\n")
        code, out, _ = run_cli(capsys, "-sm", "bom.ltl", "--timeout", "5")
        assert code == 0
        assert out[-1] == "The generated file is output.txt."
        first = (tmp_path / "output.txt").read_text().splitlines()[4]
        assert first.split("\t")[:2] == ["1", "sat"]

    def test_unwritable_report_names_the_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.ltl").write_text("a U b\n")
        (tmp_path / "output.txt").mkdir()
        code, out, err = run_cli(capsys, "-sm", "in.ltl", "--timeout", "5")
        assert code == 1
        assert out == []
        assert err.startswith("cannot write output.txt: ")
        assert "in.ltl" not in err

    def test_formula_argument_conflicts(self, capsys, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("a\n")
        code, _, err = run_cli(capsys, "-sm", str(src), "a U b")
        assert code == 1


class TestAddSolver:
    def test_add_prints_confirmation_and_prompts(self, capsys, tmp_path, monkeypatch):
        stub = tmp_path / "mysolver"
        stub.write_text(sh_stub(["sat"]))
        stub.chmod(0o755)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, _ = run_cli(capsys, "-add", str(stub))
        assert code == 0
        assert out[0] == f"{stub} is added."
        assert out[1] == "please input the formula:"

    def test_added_solver_participates(self, capsys, tmp_path, monkeypatch):
        stub = tmp_path / "mysolver"
        stub.write_text(sh_stub(["sat"]))
        stub.chmod(0o755)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        run_cli(capsys, "-add", str(stub))
        code, out, _ = run_cli(capsys, "-s", "a U b")
        assert code == 0
        assert any(line.startswith("mysolver: sat") for line in out)

    def test_duplicate_add_warns(self, capsys, tmp_path, monkeypatch):
        stub = tmp_path / "mysolver"
        stub.write_text(sh_stub(["sat"]))
        stub.chmod(0o755)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        run_cli(capsys, "-add", str(stub))
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, err = run_cli(capsys, "-add", str(stub))
        assert code == 0
        assert f"{stub} is added." not in out
        assert "already registered" in err

    def test_duplicate_add_prints_one_message(self, tmp_path):
        stub = tmp_path / "mysolver"
        stub.write_text(sh_stub(["sat"]))
        stub.chmod(0o755)
        env = child_env(**{ENV_REGISTRY: str(tmp_path / "reg")})
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "polsat", "-add", str(stub)],
                capture_output=True,
                text=True,
                env=env,
                stdin=subprocess.DEVNULL,
            )
        assert proc.returncode == 0
        assert proc.stderr.count("already registered") == 1

    def test_bad_path_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "-add", str(tmp_path / "ghost"))
        assert code == 1


class TestUnreadableRegistry:
    @pytest.mark.parametrize(
        "argv", [["a U b"], ["-s", "a U b"], ["-sm", "in.ltl"], ["-add", "solver"]]
    )
    def test_every_command_exits_one(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.ltl").write_text("a U b\n")
        (tmp_path / "solver").write_text(sh_stub(["sat"]))
        (tmp_path / "solver").chmod(0o755)
        registry = tmp_path / "registry"
        registry.mkdir()
        monkeypatch.setenv(ENV_REGISTRY, str(registry))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == []
        assert err.startswith(f"cannot read {registry}: ")


class TestUnwritableRegistry:
    def test_add_exits_one(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "solver").write_text(sh_stub(["sat"]))
        (tmp_path / "solver").chmod(0o755)
        (tmp_path / "file").write_text("")
        registry = tmp_path / "file" / "registry"  # its parent is a regular file
        monkeypatch.setenv(ENV_REGISTRY, str(registry))
        code, out, err = run_cli(capsys, "-add", str(tmp_path / "solver"))
        assert code == 1
        assert out == []
        assert err.startswith(f"cannot write {registry}: ")


class TestDuplicateBasenames:
    """Two registered solvers named ``solv`` keep apart as ``solv``/``solv#2``."""

    @pytest.fixture(autouse=True)
    def two_solvs(self, tmp_path):
        bodies = {"one": sh_stub(["sat"]), "two": "#!/bin/sh\nsleep 0.3\necho unsat\n"}
        for sub, body in bodies.items():
            (tmp_path / sub).mkdir()
            stub = tmp_path / sub / "solv"
            stub.write_text(body)
            stub.chmod(0o755)
            register(str(stub))

    def test_run_all_names_each_record(self):
        records = run_all(parse("a U b"), cli._solver_set()[3:], 5.0)
        assert {r.solver: r.verdict.kind for r in records} == {
            "solv": "sat",
            "solv#2": "unsat",
        }

    def test_run_file_totals_each_solver(self, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("a U b\n")
        report = run_file(
            src, cli._solver_set(), timeout=5.0, out_path=tmp_path / "output.txt"
        )
        assert 0 < report.totals["solv"] < 0.3 <= report.totals["solv#2"]

    def test_separate_mode_prints_both_names(self, capsys):
        code, out, _ = run_cli(capsys, "-s", "a U b")
        assert code == 0
        assert any(line.startswith("solv: sat\t") for line in out)
        assert any(line.startswith("solv#2: unsat\t") for line in out)


class TestConsoleEntryPoint:
    def test_module_invocation_matches_api(self, tmp_path):
        env = child_env(**{ENV_REGISTRY: str(tmp_path / "reg")})
        proc = subprocess.run(
            [sys.executable, "-m", "polsat", "a U b"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "sat"
        assert lines[1].startswith("from ")

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_timeout_is_a_usage_error(self, tmp_path, timeout):
        env = child_env(**{ENV_REGISTRY: str(tmp_path / "reg")})
        proc = subprocess.run(
            [sys.executable, "-m", "polsat", "--timeout", timeout, "a U b"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "error: argument --timeout" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"])  # fails on flush, or on print
    def test_closed_stdout_ends_without_a_traceback(self, tmp_path, unbuffered):
        env = child_env(**{ENV_REGISTRY: str(tmp_path / "reg")}, PYTHONUNBUFFERED=unbuffered)
        read, write = os.pipe()
        os.close(read)  # no reader, as after `polsat "a U b" | head -c 0`
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "polsat", "a U b"],
                stdout=write,
                stderr=subprocess.PIPE,
                stdin=subprocess.DEVNULL,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        assert proc.stderr == ""
        assert proc.returncode == 1
