"""Build the committed formula pools and their expected answers.

    PYTHONPATH=src python3 perfbench/build_pools.py random|patterns
    PYTHONPATH=src python3 perfbench/build_pools.py --retime random|patterns

Each pool entry is cross-checked by every internal solver run alone under a
generous budget.  Sat evidence must pass the benchmark's own checker; for
the three-proposition random pool an unsat answer must also survive a
brute-force search over every lasso of total length <= 3.  Two definitive
answers that disagree abort the build.  The pools are written to
``perfbench/data/<name>_pool.json`` and the workloads sample from them, so
every formula a run sees has a known answer.  ``--retime`` only measures
``race_cpu_s`` again on the committed pool, keeping every answer.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import checker
from polsat import Budget, gen_conjunction, gen_random, internal_solvers, parse, race, render
from polsat.engine import run_strategy

DATA = Path(__file__).resolve().parent / "data"

TABLEAU_SECONDS = 20.0
SEARCH_SECONDS = 1.0
RANDOM_POOL = 2000
PATTERNS_POOL = 400
CPU_REPEATS = 5
#: The workloads' per-formula timeouts.
RACE_TIMEOUT = {"random": 10.0, "patterns": 2.0}


def cross_check(text: str, brute_props: tuple[str, ...] = ()) -> dict:
    formula = parse(text)
    answers: dict[str, str] = {}
    entry: dict = {"text": text}
    for solver, seconds in (
        ("tableau", TABLEAU_SECONDS),
        ("lasso", SEARCH_SECONDS),
        ("shortcut", SEARCH_SECONDS),
    ):
        budget = Budget(max_nodes=None, deadline=time.monotonic() + seconds)
        verdict = run_strategy(solver, formula, budget)
        if solver == "tableau":
            entry["tableau_charges"] = budget.nodes if verdict.is_definitive else None
        if verdict.is_sat and verdict.evidence is not None:
            if not checker.holds(*checker.word_of(verdict.evidence), formula):
                raise SystemExit(f"{solver} gave invalid evidence on {text}")
        if verdict.is_definitive:
            answers[solver] = verdict.kind
    if len(set(answers.values())) > 1:
        raise SystemExit(f"solvers disagree on {text}: {answers}")
    expected = next(iter(answers.values()), "unknown")
    if expected == "unsat" and brute_props and _small_model(formula, brute_props):
        raise SystemExit(f"unsat claimed but a small model exists: {text}")
    entry["expected"] = expected
    return entry


def _small_model(formula, props: tuple[str, ...]) -> bool:
    states = [
        frozenset(p for p, on in zip(props, bits) if on)
        for bits in itertools.product((False, True), repeat=len(props))
    ]
    for total in range(1, 4):
        for cut in range(total):
            for word in itertools.product(states, repeat=total):
                if checker.holds(list(word[:cut]), list(word[cut:]), formula):
                    return True
    return False


def build_random() -> list[dict]:
    texts = dict.fromkeys(
        render(gen_random(5 + i % 21, 3, seed=i)) for i in range(RANDOM_POOL)
    )
    entries = [cross_check(text, ("a", "b", "c")) for text in texts]
    return time_cpu(classify(entries, RACE_TIMEOUT["random"], repeats=5), RACE_TIMEOUT["random"])


def build_patterns() -> list[dict]:
    # Seeds 1000.. are the conjunction corpus of the acceptance suite.
    entries = [
        dict(cross_check(render(gen_conjunction(i % 20 + 1, seed=1000 + i))), n=i % 20 + 1)
        for i in range(PATTERNS_POOL)
    ]
    return time_cpu(classify(entries, RACE_TIMEOUT["patterns"], repeats=3), RACE_TIMEOUT["patterns"])


def classify(entries: list[dict], timeout: float, repeats: int) -> list[dict]:
    """Time the fastest of a few races per formula, and mark "hard" those
    that no race decided (None when only some did: the workloads skip
    formulas whose verdict within the timeout is down to timing).

    """
    solvers = internal_solvers()
    for entry in entries:
        formula = parse(entry["text"])
        times, decided = [], set()
        for _ in range(repeats):
            t0 = time.monotonic()
            result = race(formula, solvers, timeout)
            times.append(time.monotonic() - t0)
            decided.add(result.verdict.is_definitive)
        entry["race_s"] = round(min(times), 4)
        entry["hard"] = None if len(decided) > 1 else not decided.pop()
    return entries


def time_cpu(entries: list[dict], timeout: float) -> list[dict]:
    """Median process CPU time of a few races on each formula the races
    decided (``race_cpu_s``; None on the others).

    The workloads rank the pool by it and draw every corpus evenly across
    that ranking, so corpora from different seeds cost alike.  CPU time
    ranks better than ``race_s``: the wall clock of a small cloud guest
    loses stretches of time to the host.
    """
    solvers = internal_solvers()
    for entry in entries:
        entry["race_cpu_s"] = None
        if entry["hard"] is not False:
            continue
        formula = parse(entry["text"])
        times = []
        for _ in range(CPU_REPEATS):
            t0 = time.process_time()
            race(formula, solvers, timeout)
            times.append(time.process_time() - t0)
        entry["race_cpu_s"] = round(statistics.median(times), 5)
    return entries


def main(argv: list[str]) -> int:
    makers = {"random": build_random, "patterns": build_patterns}
    retime = argv[:1] == ["--retime"]
    name = argv[-1] if len(argv) == 1 + retime else None
    if name not in makers:
        print(__doc__, file=sys.stderr)
        return 1
    out = DATA / f"{name}_pool.json"
    if retime:
        pool = time_cpu(json.loads(out.read_text()), RACE_TIMEOUT[name])
    else:
        pool = makers[name]()
    DATA.mkdir(exist_ok=True)
    out.write_text(json.dumps(pool, indent=0) + "\n")
    counts = {k: sum(e["expected"] == k for e in pool) for k in ("sat", "unsat", "unknown")}
    print(f"{out}: {len(pool)} formulas, {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
