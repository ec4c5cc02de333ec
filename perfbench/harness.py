"""Timing loop, failure accounting and tracing for one workload process."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import time
from pathlib import Path

import workloads
from spans import COUNT_METRICS, PEAK_METRICS, ROOT, TIME_METRICS, Tracer

#: Set-up is repeated this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 5

#: Untraced runs make at least this many passes, so that per-command medians
#: exist and the tail percentile keeps ten samples beyond it.
MIN_PASSES = 3

#: A command running longer than this is stopped and counted as failed.
COMMAND_LIMIT_S = 30.0

#: Tail percentile per workload: the highest with at least ten samples
#: beyond it over ``MIN_PASSES`` passes, fixed so that a faster program,
#: which makes more passes, is measured at the same percentile.  The sweep
#: uses p99: above it lie the few largest of its tiny instances, and which
#: ones a seed draws would decide the figure.
TAIL_PERCENTILE = {"check-product": 85, "synth-verify": 70,
                   "big-plant": 60, "oracle-sweep": 99}


class CommandTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise CommandTimeout()


def run_command(main, argv: list[str]):
    """Run one CLI command; returns (seconds, exit code or None, stdout, stderr).

    Time is the caller thread's CPU time, user and system.  The command is
    single-threaded and its file I/O is small, so on an idle machine this is
    its wall time; on a shared machine it leaves out the time the process
    waited for a processor, which otherwise swings run to run by a third.
    """
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, COMMAND_LIMIT_S)
    started = time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except CommandTimeout:
        rc = None
    except Exception as exc:  # a crash is counted, and the run goes on
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.thread_time() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, rc, out.getvalue(), err.getvalue()


class Pass:
    """One run of the workload's command sequence."""

    def __init__(self, wl: workloads.Workload, main, tracer: Tracer | None = None):
        self.times: list[float] = []
        self.outputs: list[tuple[int, str] | None] = []
        self.failures: list[str] = []
        digest = hashlib.sha256()
        for k, argv in enumerate(wl.commands):
            if tracer is not None:
                with tracer.root(k):
                    elapsed, rc, out, err = run_command(main, argv)
            else:
                elapsed, rc, out, err = run_command(main, argv)
            self.times.append(elapsed)
            digest.update(f"{k}:{rc}:{out.replace(wl.work, '<work>')}\n".encode())
            # A crash, a timeout or a refusal (exit 2) is a failure, not a
            # wrong answer; every other output is checked.
            if rc is None or rc == 2:
                self.outputs.append(None)
                self.failures.append(f"command {k} {argv[0]}: "
                                     f"{'exit 2' if rc == 2 else 'crashed or timed out'}"
                                     f" {err.strip()[:200]}")
            else:
                self.outputs.append((rc, out))
        self.wall = sum(self.times)
        self.digest = digest.hexdigest()


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _pinned_digest(name: str, seed: int) -> str | None:
    """The output digest recorded at the parent commit for this seed, if any.

    Product workloads are also checked against :mod:`reference`, which
    compares verdicts; the digest additionally holds every byte of output.
    """
    path = Path(__file__).with_name("digests.json")
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


def _median_pass(passes: list[Pass]) -> float:
    """The command sequence's time, each command at its median over passes.

    Per-command medians keep a stall of the machine during one command from
    moving the figure, which the median of a few pass totals would not.
    """
    return sum(statistics.median(times) for times in zip(*(p.times for p in passes)))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "infobs").rglob("*.py")))


def run_workload(infobs, import_s: float, name: str, seed: int, seconds: float,
                 trace: bool, workdir: str) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    work = Path(workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.thread_time()
        wl = workloads.build(name, seed, work)
        setups.append(time.thread_time() - started)
    wl.prepare()
    main = infobs.cli.main

    passes: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    untraced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced.append(Pass(wl, main))
        passes.append(untraced[-1])
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((Pass(wl, main, tracer), tracer))
            finally:
                tracer.uninstall()
            passes.append(traced[-1][0])
        enough = len(untraced) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    problems: list[str] = []
    for p in passes:
        for problem in wl.verify(p.outputs):
            if problem not in problems:
                problems.append(problem)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"outputs differ between passes ({len(digests)} digests)")
    pinned = _pinned_digest(name, seed)
    if pinned is not None and pinned not in digests:
        problems.append("outputs differ from those pinned at the parent commit")
    failures = sorted({f for p in passes for f in p.failures})

    samples = [t for p in untraced for t in p.times]
    tail_p = TAIL_PERCENTILE[name]
    tail, beyond = percentile(samples, tail_p)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report = {
        "workload": name, "seed": seed, "passes": len(untraced),
        "commands_per_pass": len(wl.commands), "samples": len(samples),
        "tail_percentile": tail_p, "samples_beyond_tail": beyond,
        "failed_frac": failed / attempted, "digest": untraced[0].digest,
        "src_lines": src_lines(Path.cwd()), "import_s": import_s,
        "problems": problems[:5], "failures": failures[:5],
    }
    if trace:
        metrics = _layer_metrics(wl, main, untraced, traced, report)
    else:
        metrics = {
            "wall_s": (_median_pass(untraced), "s"),
            "cmd_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "cmd_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "setup_s": (import_s + statistics.median(setups), "s"),
        }
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }))
    return 0


def _layer_metrics(wl, main, untraced, traced, report) -> dict:
    per_pass: dict[str, list[float]] = {m: [] for m in TIME_METRICS}
    shares: dict[str, list[float]] = {}
    for _p, tracer in traced:
        self_time = tracer.self_times()
        # Time a command spends outside every traced layer: argument
        # parsing, file reads, formula construction, output.
        self_time["cli.unaccounted"] = self_time.pop(ROOT, 0.0)
        values = {f"{name}_s": value for name, value in self_time.items()}
        values["synthesis.synthesize_s"] = tracer.inclusive("synthesis.synthesize")
        for metric in TIME_METRICS:
            per_pass[metric].append(values.get(metric, 0.0))
        modules: dict[str, float] = {}
        for span_name, value in self_time.items():
            module = span_name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + value
        total = sum(modules.values())
        for module, value in modules.items():
            shares.setdefault(module, []).append(value / total)

    # Allocation peaks come from one more pass under tracemalloc, which
    # slows every allocation and so is kept out of the timed passes.
    memory = Tracer(memory=True)
    memory.install()
    try:
        Pass(wl, main, memory)
    finally:
        memory.uninstall()
    peaks = memory.peaks_mb()

    tracer = traced[0][1]
    out = {m: (statistics.median(v), "s") for m, v in per_pass.items()}
    out.update({m: (tracer.counts.get(m, 0), "count") for m in COUNT_METRICS})
    out.update({m: (peaks.get(m.split(".")[0], 0.0), "MB") for m in PEAK_METRICS})
    out["trace.overhead_s"] = (_median_pass([p for p, _ in traced])
                               - _median_pass(untraced), "s")
    out["src_lines"] = (report["src_lines"], "lines")
    report["shares"] = {m: statistics.median(v) for m, v in sorted(shares.items())}
    trace_dir = Path.cwd() / ".perfbench_out"
    trace_dir.mkdir(exist_ok=True)
    tracer.dump(trace_dir / f"trace-{report['workload']}-seed{report['seed']}.json")
    return out
