"""polsat benchmark: time to verdict and solved share, end to end and per layer.

    python3 perfbench/run.py --workload showcase|random|patterns|external
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

Run from anywhere inside a checkout of the repository; nothing needs to be
installed.  Each run sets up a scratch directory under ``.perfbench_tmp``
with an empty solver registry, times fresh interpreters that import polsat
and build the solver set (``setup_s``), then runs the workload in one more
fresh interpreter (``worker.py``).  Solver processes the run leaves behind
are counted, killed and reaped before it ends.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; ``all`` runs every
workload both ways and prints every metric.  The last line of the output is
a JSON object; a full record with the environment goes to
``.perfbench_results/``.  See ``METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("showcase", "random", "patterns", "external")
SETUP_RUNS = 15
RUN_LIMIT = 170.0  # seconds for the worker, inside the 180 s a run may take
PR_SET_CHILD_SUBREAPER = 36

sys.path.insert(0, str(HERE))
from worker import marked_pids  # noqa: E402  (stdlib only, no polsat import)

def become_subreaper() -> bool:
    """Adopt orphaned descendants, so they can be counted and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


class Reaper:
    """Waits for the worker while reaping whatever else is adopted."""

    def __init__(self) -> None:
        self.orphans = 0

    def reap(self, worker_pid: int | None = None) -> int | None:
        """Reap every exited child; return the worker's exit code if it ended."""
        code = None
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return code
            if pid == 0:
                return code
            if pid == worker_pid:
                code = os.waitstatus_to_exitcode(status)
            else:
                self.orphans += 1

    def wait_worker(self, proc: subprocess.Popen, limit: float) -> int | None:
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            code = self.reap(proc.pid)
            if code is not None:
                proc.returncode = code
                return code
            time.sleep(0.05)
        proc.kill()
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return None

    def sweep(self, mark: str, prefix: bool = False, limit: float = 10.0) -> None:
        """Kill every marked process and wait until none is left."""
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            pids = marked_pids(mark, prefix)
            if not pids:
                break
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
            self.reap()
        self.reap()


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    lines = sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_nonblank_lines": lines,
    }


def child_env(scratch: Path, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "POLSAT_"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=str(seed % 2**32),
        POLSAT_REGISTRY=str(scratch / "registry"),
        PERFBENCH_MARK=str(scratch),
        PERFBENCH_RACE="-",
    )
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, env: dict) -> float:
    """Median CPU time (user and system) of a fresh interpreter that imports
    polsat and builds its solver set, after one untimed start that compiles
    and registers.  CPU time, like the verdict times, because the host
    takes the guest's wall clock away in stretches."""
    cmd = [sys.executable, str(WORKER), "--setup", "--workload", workload]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = children_cpu()
        subprocess.run(cmd, env=env, check=True)
        if i:
            times.append(children_cpu() - t0)
    return statistics.median(times)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    tmp_root = ROOT / ".perfbench_tmp"
    # Wait out (then kill) anything an earlier run may have left behind.
    reaper = Reaper()
    deadline = time.monotonic() + 5.0
    while marked_pids(str(tmp_root), prefix=True) and time.monotonic() < deadline:
        time.sleep(0.1)
    reaper.sweep(str(tmp_root), prefix=True)

    scratch = tmp_root / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    env = child_env(scratch, seed)
    out = scratch / "result.json"
    try:
        setup_s = measure_setup(workload, env)
        cmd = [
            sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
        ]
        proc = subprocess.Popen(cmd, env=env)
        code = reaper.wait_worker(proc, RUN_LIMIT)
        reaper.sweep(str(scratch))
        if code != 0 or not out.exists():
            raise SystemExit(f"workload {workload} failed (exit {code})")
        result = json.loads(out.read_text())
        spans = scratch / "spans.jsonl"
        if spans.exists():
            result["spans_file"] = str(save_artifact(spans, workload, seed, trace, "spans.jsonl"))
    finally:
        reaper.sweep(str(scratch))
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    if trace:
        runs = result.pop("external_runs")
        metrics["external.orphans"] = reaper.orphans / runs if runs else 0.0
    else:
        metrics["setup_s"] = setup_s
        result.pop("external_runs")
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, env=environment())
    record = save_artifact(None, workload, seed, trace, "json")
    record.write_text(json.dumps(result, indent=1) + "\n")
    return result


def save_artifact(src: Path | None, workload: str, seed: int, trace: int, suffix: str) -> Path:
    folder = ROOT / ".perfbench_results"
    folder.mkdir(exist_ok=True)
    dest = folder / f"{workload}-seed{seed}-trace{trace}.{suffix}"
    if src is not None:
        shutil.copyfile(src, dest)
    return dest


def selected(metrics: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def report(result: dict, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{result['workload']:9s} {name:28s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"FAILED {problem['problem']}: {problem['formula']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polsat" / "__init__.py").is_file():
        print(f"no polsat sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    become_subreaper()

    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" else [
        (args.workload, args.trace)
    ]
    attempted = failed = 0
    summary = {}
    for workload, trace in runs:
        result = run_one(workload, args.seed, args.seconds, trace)
        metrics = selected(result["metrics"], trace)
        report(result, metrics)
        attempted += result["attempted"]
        failed += result["failed"]
        summary.update({f"{workload}.{k}" if args.workload == "all" else k: v
                        for k, v in metrics.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
