import random
from pathlib import Path

import pytest

import polsat
from polsat.formulas import (
    FALSE,
    TRUE,
    And,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
)
from polsat.lasso import LassoWord

FIXTURES = Path(__file__).parent / "fixtures"
PROC = Path("/proc")

#: For process-hygiene checks, which read ``/proc``.
requires_proc = pytest.mark.skipif(not (PROC / "self").exists(), reason="needs /proc")

#: Directory the running tests imported ``polsat`` from (``src`` in a
#: checkout, ``site-packages`` when installed).
POLSAT_PATH = str(Path(polsat.__file__).resolve().parent.parent)


def binary_counter(bits: int) -> str:
    """A ``bits``-bit binary counter that starts at zero, counts up by one at
    every step and may never reach all ones: unsat, with every proposition
    in both polarities and no ``G`` of a literal, so the split's
    simplification pass fixes nothing and the tableau has to count."""
    c = [f"c{i}" for i in range(bits)]
    parts = [f"!{x}" for x in c] + [f"G ({c[0]} <-> X !{c[0]})"]
    for i in range(1, bits):  # bit i flips exactly when the bits below are all one
        parts.append(f"G (({c[i]} <-> X {c[i]}) <-> !({' & '.join(c[:i])}))")
    parts.append(f"G !({' & '.join(c)})")
    return " & ".join(parts)


#: A formula no internal solver decides in a 2 s race: alone, ``tableau``
#: takes 33 s (29 M charges) to show it unsat on a 2-vCPU host, ``lasso``
#: longer (the 12-bit counter takes them 1.1 s and 40+ s, and each bit
#: multiplies ``tableau``'s time by about 2.3), and ``shortcut`` gives up
#: within milliseconds.
UNDECIDED = binary_counter(16)

UNARY = (Not, Next, Globally, Finally)
BINARY = (And, Or, Implies, Iff, Until, Release)


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child interpreter that must import this ``polsat``:
    ``PATH``, ``PYTHONPATH`` and the test's own variables, nothing else."""
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": POLSAT_PATH, **extra}


def live_processes(marker: str) -> list[int]:
    """Pids whose command line contains ``marker``, read from ``/proc``.

    The scan sees every process, including orphans reparented away from the
    caller.  A zombie's command line is empty, so it does not count.
    """
    pids = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # the process ended during the scan
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def random_formula(rng: random.Random, size: int, props: tuple[str, ...]) -> Formula:
    """Uniform-ish random formula with exactly ``size`` AST nodes."""
    if size == 1:
        if rng.random() < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return Prop(rng.choice(props))
    if size == 2:
        return rng.choice(UNARY)(random_formula(rng, 1, props))
    op = rng.choice(UNARY + BINARY)
    if op in UNARY:
        return op(random_formula(rng, size - 1, props))
    left = rng.randint(1, size - 2)
    return op(
        random_formula(rng, left, props),
        random_formula(rng, size - 1 - left, props),
    )


def random_lasso(
    rng: random.Random,
    props: tuple[str, ...],
    max_prefix: int = 3,
    max_loop: int = 3,
) -> LassoWord:
    def state() -> frozenset[str]:
        return frozenset(p for p in props if rng.random() < 0.5)

    prefix = tuple(state() for _ in range(rng.randint(0, max_prefix)))
    loop = tuple(state() for _ in range(rng.randint(1, max_loop)))
    return LassoWord(prefix, loop)


def all_lassos(props: tuple[str, ...], max_prefix: int = 3, max_loop: int = 3):
    """Every lasso with bounded prefix/loop over subsets of ``props``."""
    states = _subsets(props)
    for plen in range(max_prefix + 1):
        for prefix in _tuples(states, plen):
            for llen in range(1, max_loop + 1):
                for loop in _tuples(states, llen):
                    yield LassoWord(prefix, loop)


def _subsets(props: tuple[str, ...]) -> list[frozenset[str]]:
    out = [frozenset()]
    for p in props:
        out += [s | {p} for s in out]
    return out


def _tuples(pool, length):
    if length == 0:
        yield ()
        return
    for rest in _tuples(pool, length - 1):
        for item in pool:
            yield (item,) + rest


@pytest.fixture
def stub_dir(tmp_path):
    """Factory for small executable solver stubs."""

    def make(name: str, body: str) -> str:
        path = tmp_path / name
        path.write_text(body)
        path.chmod(0o755)
        return str(path)

    return make


def sh_stub(output_lines: list[str]) -> str:
    lines = "".join(f"echo '{line}'\n" for line in output_lines)
    return f"#!/bin/sh\n{lines}"


def sleeper_stub(seconds: float, ignore_term: bool = False) -> str:
    # Single-process sleeper: no shell children to orphan.
    handler = (
        "import signal\nsignal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        if ignore_term
        else ""
    )
    return (
        "#!/usr/bin/env python3\n"
        f"{handler}"
        "import time\n"
        f"time.sleep({seconds})\n"
        "print('sat')\n"
    )
