"""External solver processes and the persisted solver registry.

An external solver is any executable that takes one formula as its single
argument and prints ``sat`` or ``unsat`` (case-insensitive) as the first
line of standard output, optionally followed by one evidence line in the
lasso text format.  Registered paths persist in a line-oriented registry
file (one absolute path per line) whose location can be overridden with the
``POLSAT_REGISTRY`` environment variable.
"""

from __future__ import annotations

import functools
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .engine import Verdict
from .formulas import Formula, render
from .lasso import EvidenceError, parse_evidence
from .portfolio import GRACE_SECONDS, RunRecord, SolverSpec

__all__ = [
    "ExternalSolverSpec",
    "Registry",
    "RegistrationError",
    "default_registry_path",
    "register",
    "invoke",
    "as_solver_spec",
]

ENV_REGISTRY = "POLSAT_REGISTRY"

_VERDICT_RE = re.compile(r"(sat|unsat)", re.IGNORECASE)


class RegistrationError(ValueError):
    """The path cannot be registered as a solver, or the registry cannot be
    read or written."""


@dataclass(frozen=True)
class ExternalSolverSpec:
    """A registered external solver executable."""

    path: str

    @property
    def name(self) -> str:
        return Path(self.path).name


def default_registry_path() -> Path:
    env = os.environ.get(ENV_REGISTRY)
    if env:
        return Path(env)
    config_home = os.environ.get("XDG_CONFIG_HOME") or str(Path.home() / ".config")
    return Path(config_home) / "polsat" / "solvers"


@dataclass
class Registry:
    """Ordered list of external solver paths, stored one per line."""

    specs: list[ExternalSolverSpec] = field(default_factory=list)
    path: Path = field(default_factory=default_registry_path)

    @classmethod
    def load(cls, path: Path | None = None) -> "Registry":
        path = path or default_registry_path()
        specs: list[ExternalSolverSpec] = []
        seen: set[str] = set()
        if path.exists():  # a missing registry is an empty one
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise RegistrationError(f"cannot read {path}: {exc}") from exc
            for line in text.splitlines():
                line = line.strip()
                if not line or line in seen:
                    continue
                seen.add(line)
                specs.append(ExternalSolverSpec(line))
        return cls(specs, path)

    def save(self) -> None:
        text = "".join(spec.path + "\n" for spec in self.specs)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(text)
        except OSError as exc:
            raise RegistrationError(f"cannot write {self.path}: {exc}") from exc

    def add(self, solver_path: str) -> bool:
        """Append a solver; returns False (no-op) when already present."""
        resolved = str(Path(solver_path).resolve())
        if any(spec.path == resolved for spec in self.specs):
            return False
        self.specs.append(ExternalSolverSpec(resolved))
        return True


def register(solver_path: str, registry_path: Path | None = None) -> bool:
    """Validate and persist an external solver path.

    The path must exist and be executable.  Returns False, and changes
    nothing, when the path is already registered.
    """
    p = Path(solver_path)
    if not p.exists():
        raise RegistrationError(f"no such file: {solver_path}")
    if not os.access(p, os.X_OK) or p.is_dir():
        raise RegistrationError(f"not an executable file: {solver_path}")
    registry = Registry.load(registry_path)
    added = registry.add(solver_path)
    if added:
        registry.save()
    return added


def invoke(
    spec: ExternalSolverSpec,
    formula: Formula,
    timeout: float,
    cancel: threading.Event | None = None,
) -> RunRecord:
    """Run one external solver on one formula.

    The formula is rendered in the default dialect and passed as a single
    argument.  The solver leads a new session, so its process group holds
    its descendants too.  On timeout or cancellation that whole group is
    terminated, then killed after ``GRACE_SECONDS`` if the solver is still
    alive; a cancel set before the spawn starts no process.  A timed-out
    run costs exactly ``timeout``.
    """
    text = render(formula)
    start = time.monotonic()
    deadline = start + timeout
    if cancel is not None and cancel.is_set():  # set before or while rendering
        return RunRecord(spec.name, Verdict.cancelled(), 0.0)
    try:
        proc = subprocess.Popen(
            [spec.path, text],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
    except OSError as exc:
        return RunRecord(spec.name, Verdict.error(f"spawn failed: {exc}"), 0.0)

    output: str | None = None
    while output is None:
        try:
            output, _ = proc.communicate(timeout=0.02)
        except subprocess.TimeoutExpired:
            if cancel is not None and cancel.is_set():
                _kill(proc)
                return RunRecord(
                    spec.name, Verdict.cancelled(), time.monotonic() - start
                )
            if time.monotonic() >= deadline:
                _kill(proc)
                # Accounting rule: a timed-out run costs exactly the timeout.
                return RunRecord(spec.name, Verdict.timeout(), timeout)
    elapsed = time.monotonic() - start
    return RunRecord(spec.name, _parse_output(output, proc.returncode), elapsed)


def _kill(proc: subprocess.Popen) -> None:
    # The unreaped solver keeps its group alive, so neither signal can miss.
    os.killpg(proc.pid, signal.SIGTERM)
    try:
        proc.wait(timeout=GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
    try:
        proc.communicate(timeout=GRACE_SECONDS)
    except (subprocess.TimeoutExpired, ValueError):
        pass


def _parse_output(output: str, returncode: int | None) -> Verdict:
    lines = output.splitlines()
    if not lines or not lines[0].strip():
        return Verdict.error(f"no output (exit code {returncode})")
    first = lines[0].strip()
    if not _VERDICT_RE.fullmatch(first):
        return Verdict.error(f"unrecognized verdict line: {first!r}")
    if first.lower() == "unsat":
        return Verdict.unsat()
    evidence = None
    if len(lines) > 1 and lines[1].strip():
        try:
            evidence = parse_evidence(lines[1])
        except EvidenceError as exc:
            return Verdict.error(f"malformed evidence line: {exc}")
    return Verdict.sat(evidence)


def as_solver_spec(spec: ExternalSolverSpec, supports_evidence: bool = True) -> SolverSpec:
    """Wrap an external solver for use in a portfolio."""
    return SolverSpec(
        name=spec.name,
        kind="external",
        run=functools.partial(invoke, spec),
        supports_evidence=supports_evidence,
        detail=spec.path,
    )
