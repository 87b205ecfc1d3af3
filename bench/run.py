"""Benchmark for additive-bases: workloads of real CLI runs, with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload certificate-full --seed 1 --seconds 55 --trace 0

With --trace 0 each workload command runs as its own `python -m
additive_bases ...` process, one at a time (a closed loop), over as
many passes as fit in --seconds; wall_s and cpu_s sum, over a
workload's commands, each command's median.
With --trace 1 the commands of every workload run once more, each in a
child that calls cli.main with span wrappers installed (spans.py), and
the per-layer metrics are reported instead.  Every output is checked;
the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
THREAD_PROBE_N = 4000
IMPORT_CLI = ("-c", "import additive_bases.cli")


@dataclass(frozen=True)
class Outcome:
    status: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def spawn(args, env) -> Outcome:
    """Run the interpreter with args; resources come from os.wait4 on this child alone.

    RUSAGE_CHILDREN would not do: its ru_maxrss is a high-water mark over
    every child so far, so one large process would mask all later ones.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        status=proc.returncode,
        stdout=out.decode(),
        stderr=err[0].decode(),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"bench: FAIL {what}: {problem}", file=sys.stderr)


def run_pass(cmds, env, tally: Tally) -> list:
    """Each command as its own `python -m additive_bases` process, outputs checked."""
    outs = [spawn(("-m", "additive_bases", *cmd.argv), env) for cmd in cmds]
    for cmd, out in zip(cmds, outs):
        problem = workloads.verdict(cmd, out.status, out.stdout)
        tally.record(" ".join(cmd.argv[:4]), problem and f"{problem} {out.stderr[-300:]}")
    return outs


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    cmds = workloads.commands(workload, seed)
    env = child_env()
    attempted, failed = tally.attempted, tally.failed
    setup = []

    def setup_sample():
        out = spawn(IMPORT_CLI, env)
        tally.record("import additive_bases.cli", None if out.status == 0 else out.stderr[-300:])
        setup.append(out.wall)

    t0 = time.perf_counter()
    # The machine's speed drifts over tens of seconds, so set-up samples are
    # spread over the whole run, one at its start and one after every pass.
    setup_sample()
    passes = []
    while True:
        passes.append(run_pass(cmds, env, tally))
        setup_sample()
        elapsed = time.perf_counter() - t0
        # Stop once another pass would end more than half a pass after --seconds.
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    # Each command's median over the passes, summed: a slow stretch of the
    # machine then spoils one sample of a command, not a whole pass.
    per_cmd = list(zip(*passes))
    print(f"bench: {workload}: {len(passes)} passes in {elapsed:.1f} s, "
          f"pass walls {[round(sum(o.wall for o in p), 3) for p in passes]}", file=sys.stderr)
    return {
        "wall_s": sum(statistics.median(o.wall for o in outs) for outs in per_cmd),
        "cpu_s": sum(statistics.median(o.cpu for o in outs) for outs in per_cmd),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in outs) for outs in per_cmd),
        "pass_rate": 1.0 - (tally.failed - failed) / (tally.attempted - attempted),
    }


def import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative import time of the outermost `package` entries in -X importtime output."""
    rows = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative = parts[1].strip()
        if not cumulative.isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    inside = None  # depth of the package entry being skipped over
    for depth, module, cumulative in reversed(rows):  # parents now precede children
        if inside is not None and depth > inside:
            continue
        inside = None
        if module == package or module.startswith(package + "."):
            total += cumulative
            inside = depth
    return total / 1e6


def traced(workload: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics: every workload's commands once, each in a traced child."""
    env = child_env()
    log = spawn(("-X", "importtime", *IMPORT_CLI), env).stderr
    layers = {
        "cli.import.scipy_s": import_seconds(log, "scipy"),
        "cli.import.numpy_s": import_seconds(log, "numpy"),
    }
    all_spans = []
    traced_wall = dict.fromkeys(workloads.WORKLOADS, 0.0)
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, seed):
            out = spawn((str(BENCH / "spans.py"), *cmd.argv), env)
            traced_wall[name] += out.wall
            what = "traced " + " ".join(cmd.argv[:4])
            try:
                child = json.loads(out.stdout.splitlines()[-1])
            except (ValueError, IndexError):
                tally.record(what, f"no trace from child: {out.stderr[-300:]}")
                continue
            tally.record(what, workloads.verdict(cmd, child["status"], child["stdout"]))
            all_spans += spans.adopt(child["spans"], offset=len(all_spans))
    untraced_wall = sum(o.wall for o in run_pass(workloads.commands(workload, seed), env, tally))
    layers.update(spans.layer_metrics(all_spans))
    layers["fourier2d.c_main.thread_speedup"] = thread_speedup(all_spans, env, tally)
    layers["trace.overhead_s"] = traced_wall[workload] - untraced_wall

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(asdict(s)) + "\n")
    print(f"bench: {len(all_spans)} spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return layers


def thread_speedup(all_spans, env, tally: Tally) -> float:
    """c_main(4000) on one thread over the same on min(2, nproc) threads.

    The one-thread time is the traced `bound two-var` child's (the CLI
    default); the other comes from a fresh child too, so both pay the same
    process start-up state.
    """
    from additive_bases import fourier2d

    one = [s.duration for s in all_spans
           if s.name == "fourier2d.c_main" and s.attrs.get("N") == THREAD_PROBE_N]
    if not one or "threads" not in inspect.signature(fourier2d.c_main).parameters:
        return 1.0  # no thread pool to compare against
    threads = min(2, os.cpu_count() or 1)
    probe = spawn(("-c", "import time\nfrom additive_bases import fourier2d\n"
                         "t0 = time.perf_counter()\n"
                         f"fourier2d.c_main({THREAD_PROBE_N}, threads={threads})\n"
                         "print(time.perf_counter() - t0)"), env)
    tally.record(f"c_main({THREAD_PROBE_N}, threads={threads})",
                 None if probe.status == 0 else probe.stderr[-300:])
    return one[0] / float(probe.stdout) if probe.status == 0 else 1.0


def git_rev() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "additive_bases" / "cli.py").is_file():
        print(f"bench: no src/additive_bases/cli.py under {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.trace and args.workload == "all":
        parser.error("--workload all needs --trace 0 (the traced run already covers all)")
    sys.path.insert(0, str(SRC))
    os.environ.pop("ADDITIVE_BASES_THREADS", None)  # measure the CLI's default worker count

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    load_start = os.getloadavg()[0]
    tally = Tally()
    if args.trace:
        runs = [("", traced(args.workload, args.seed, tally))]
    else:
        every = args.workload == "all"
        names = workloads.WORKLOADS if every else (args.workload,)
        runs = [(f"{n}." if every else "", measure(n, args.seed, seconds, tally)) for n in names]
    metrics = {}
    for prefix, values in runs:
        if values.keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} "
                               "disagree with BENCHMARK.json")
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_rev": git_rev(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
