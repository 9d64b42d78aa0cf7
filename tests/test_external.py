import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from polsat.bench import gen_O1
from polsat.cli import _solver_set
from polsat.external import (
    ENV_REGISTRY,
    ExternalSolverSpec,
    RegistrationError,
    Registry,
    as_solver_spec,
    default_registry_path,
    invoke,
    register,
)
from polsat.formulas import parse, render
from polsat.lasso import LassoWord
from polsat.portfolio import race

from conftest import (
    binary_counter,
    child_env,
    live_processes,
    requires_proc,
    sh_stub,
    sleeper_stub,
)


@pytest.fixture
def registry_path(tmp_path, monkeypatch):
    path = tmp_path / "registry.txt"
    monkeypatch.setenv(ENV_REGISTRY, str(path))
    return path


class TestRegistry:
    def test_register_persists(self, stub_dir, registry_path):
        stub = stub_dir("fastsat", sh_stub(["sat"]))
        register(stub)
        reloaded = Registry.load()
        assert [s.path for s in reloaded.specs] == [str(Path(stub).resolve())]
        assert reloaded.specs[0].name == "fastsat"

    def test_duplicate_register_is_noop(self, stub_dir, registry_path):
        stub = stub_dir("fastsat", sh_stub(["sat"]))
        register(stub)
        before = registry_path.read_text()
        register(stub)
        assert registry_path.read_text() == before

    def test_missing_path_rejected(self, registry_path):
        with pytest.raises(RegistrationError):
            register("/no/such/solver")

    def test_non_executable_rejected(self, tmp_path, registry_path):
        plain = tmp_path / "notasolver"
        plain.write_text("echo sat\n")
        with pytest.raises(RegistrationError):
            register(str(plain))

    def test_roundtrip_many_specs(self, tmp_path, registry_path):
        reg = Registry.load()
        for i in range(100):
            reg.specs.append(ExternalSolverSpec(f"/opt/solvers/s{i}"))
        reg.save()
        assert Registry.load().specs == reg.specs

    def test_env_override(self, tmp_path, monkeypatch):
        special = tmp_path / "elsewhere" / "reg"
        monkeypatch.setenv(ENV_REGISTRY, str(special))
        assert default_registry_path() == special

    def test_default_location_under_config_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_REGISTRY, raising=False)
        monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path))
        assert default_registry_path() == tmp_path / "polsat" / "solvers"


class TestInvoke:
    def test_sat_with_evidence(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("evi", sh_stub(["sat", "(b)"])))
        record = invoke(spec, parse("a U b"), 5.0)
        assert record.verdict.is_sat
        assert record.verdict.evidence == LassoWord([], [{"b"}])
        assert record.solver == "evi"

    def test_unsat(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("no", sh_stub(["unsat"])))
        record = invoke(spec, parse("a"), 5.0)
        assert record.verdict.is_unsat

    def test_case_insensitive_verdict(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("loud", sh_stub(["SAT"])))
        assert invoke(spec, parse("a"), 5.0).verdict.is_sat

    def test_garbage_output_is_solver_error(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("junk", sh_stub(["maybe?"])))
        verdict = invoke(spec, parse("a"), 5.0).verdict
        assert verdict.kind == "unknown"
        assert verdict.reason == "solver-error"

    def test_no_output_is_solver_error(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("mute", "#!/bin/sh\nexit 3\n"))
        verdict = invoke(spec, parse("a"), 5.0).verdict
        assert verdict.reason == "solver-error"

    def test_malformed_evidence_line_is_solver_error(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("bad", sh_stub(["sat", "((("])))
        verdict = invoke(spec, parse("a"), 5.0).verdict
        assert verdict.reason == "solver-error"

    def test_spawn_failure_is_solver_error(self, tmp_path):
        spec = ExternalSolverSpec(str(tmp_path / "ghost"))
        verdict = invoke(spec, parse("a"), 5.0).verdict
        assert verdict.reason == "solver-error"

    def test_timeout_kills_and_accounts_exactly(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("slow", sleeper_stub(10)))
        t0 = time.monotonic()
        record = invoke(spec, parse("a"), 0.2)
        wall = time.monotonic() - t0
        assert record.verdict.reason == "timeout"
        assert record.elapsed == 0.2
        assert wall < 2.0  # killed promptly, not after 10 s

    def test_cancel_kills_process(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("slow", sleeper_stub(10)))
        cancel = threading.Event()
        out = {}

        def run():
            out["record"] = invoke(spec, parse("a"), 10.0, cancel)

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.3)
        cancel.set()
        t.join(5.0)
        assert not t.is_alive()
        assert out["record"].verdict.reason == "cancelled"

    def test_cancel_set_before_the_spawn_starts_nothing(self, stub_dir, tmp_path):
        log = tmp_path / "started"
        spec = ExternalSolverSpec(stub_dir("logger", f"#!/bin/sh\ntouch {log}\necho sat\n"))
        cancel = threading.Event()
        cancel.set()
        record = invoke(spec, parse("a"), 10.0, cancel)
        assert record.verdict.reason == "cancelled"
        assert record.elapsed == 0.0
        time.sleep(0.2)  # time for a started stub to leave its log
        assert not log.exists()

    def test_cancel_kills_the_whole_process_group(self, stub_dir, tmp_path):
        # The wrapper's sleep is a grandchild of the caller; cancelling must
        # reach it as well as the shell.
        pid_file = tmp_path / "pid"
        wrapper = (
            f"#!/bin/sh\nsleep 30 &\necho $$ > {pid_file}.tmp\n"
            f"mv {pid_file}.tmp {pid_file}\nwait\n"
        )
        spec = ExternalSolverSpec(stub_dir("wrapper", wrapper))
        cancel = threading.Event()
        t = threading.Thread(target=invoke, args=(spec, parse("a"), 60.0, cancel))
        t.start()
        deadline = time.monotonic() + 5.0
        while not pid_file.exists():
            assert time.monotonic() < deadline, "wrapper never started"
            time.sleep(0.01)
        pgid = os.getpgid(int(pid_file.read_text()))
        cancel.set()
        t.join(5.0)
        assert not t.is_alive()
        # A killed grandchild lingers as a zombie until init reaps it.
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the solver survived"
            time.sleep(0.05)

    def test_kill_escalation_for_term_ignorers(self, stub_dir):
        spec = ExternalSolverSpec(stub_dir("stubborn", sleeper_stub(10, ignore_term=True)))
        t0 = time.monotonic()
        record = invoke(spec, parse("a"), 0.2)
        wall = time.monotonic() - t0
        assert record.verdict.reason == "timeout"
        assert wall < 2.0

    def test_formula_passed_as_one_argument(self, stub_dir, tmp_path):
        sink = tmp_path / "seen.txt"
        echo = stub_dir(
            "echoarg", f'#!/bin/sh\nprintf %s "$1" > {sink}\necho sat\n'
        )
        f = parse("G (a -> F b)")
        invoke(ExternalSolverSpec(echo), f, 5.0)
        assert sink.read_text() == render(f)
        assert parse(sink.read_text()) == f


class TestProcessHygiene:
    @requires_proc
    def test_no_orphans_after_races(self, stub_dir):
        fast = as_solver_spec(ExternalSolverSpec(stub_dir("fastsat", sh_stub(["sat"]))))
        slow_path = stub_dir("slowpoke", sleeper_stub(10))
        slow = as_solver_spec(ExternalSolverSpec(slow_path))
        f = parse("a U b")
        for _ in range(5):
            result = race(f, [slow, fast], 10.0)
            assert result.verdict.is_sat
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            leftovers = live_processes(slow_path)
            if not leftovers:
                break
            time.sleep(0.05)
        assert not leftovers

    def test_race_decided_in_the_head_start_starts_no_process(
        self, stub_dir, registry_path, tmp_path
    ):
        log = tmp_path / "started"
        register(stub_dir("logger", f"#!/bin/sh\ntouch {log}\necho unsat\n"))
        solvers = _solver_set()
        assert solvers[-1].name == "logger"
        # tableau decides each race in about a millisecond, inside its head
        # start; without one, about every other race would start the stub.
        for _ in range(20):
            assert race(gen_O1(100), solvers, 10.0).winner == "tableau"
        time.sleep(0.2)  # time for a started stub to leave its log
        assert not log.exists()

    @requires_proc
    def test_no_solver_outlives_the_cli(self, stub_dir, tmp_path):
        # The race ends while the stub still sleeps, and the interpreter exits
        # right after printing.  tableau takes about 0.1 s on the 9-bit
        # counter, long enough for the stub to be spawned first.
        stub = stub_dir("sleepstub", sleeper_stub(30))
        registry = tmp_path / "registry"
        registry.write_text(stub + "\n")
        env = child_env(**{ENV_REGISTRY: str(registry)})
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "polsat", binary_counter(9)],
                capture_output=True,
                text=True,
                env=env,
                stdin=subprocess.DEVNULL,
                timeout=60,
            )
            assert proc.stdout.splitlines()[:2] == ["unsat", "from tableau"]
        deadline = time.monotonic() + 1.0
        while (leftovers := live_processes(stub)) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in leftovers:  # do not leave them to sleep out their 30 s
            os.kill(pid, signal.SIGKILL)
        assert not leftovers
