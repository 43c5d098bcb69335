"""The dynpois benchmark: real CLI commands in a closed loop, with checked outputs.

    python3 perfbench/run.py --workload fit_dm2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. One client runs one command at a time. Each
command is a fresh interpreter running ``dynpois.cli.run_command`` (see
child.py) on a cohort simulated from the seed; the loop moves to a new cohort
for each command until the time is up, then runs the first cohort again to
check that its output bytes repeat. With ``--trace 1`` one more, traced run of
the first cohort gives the per-layer metrics. The last line of standard output
is the JSON result; metric names and units come from BENCHMARK.json. Every
command's outputs, digests and the host record go to
``.perfbench/<workload>-s<seed>/record.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Workload, check_outputs, cohort_seed, simulate, write_cohort  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole run, so that it ends within 180 s
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 0.0025  # the probe unit's CPU time at the nominal speed

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import dynpois.cli
dynpois.cli.io.ingest_csv(sys.argv[1])
print(repr(time.perf_counter() - start))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits nonzero without a result."""


@dataclass
class Execution:
    cohort: int
    traced: bool
    exit_code: int
    wall_s: float  # as measured
    rss_mb: float
    probe_s: float  # mean probe unit time while the command ran
    report: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    digest: str = ""
    ess_min: float = 0.0

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the probe's nominal speed."""
        return PROBE_NOMINAL_S / self.probe_s

    @property
    def norm_s(self) -> float:
        return self.wall_s * self.scale


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy")}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _combine(pair, k=1.0):
    return pair.a * k + pair.b


_PROBE_ARRAY = np.ones(150)


def probe_unit(gen: np.random.Generator) -> float:
    """Fixed work in the program's style that touches no dynpois code.

    Python calls, attribute reads and small allocations, then numpy scalar
    indexing and scalar Generator draws. Of the units tried, this mix slowed
    most nearly in proportion to the commands when the host slowed; a pure
    arithmetic loop or a cache-heavy numpy unit slowed less than they did.
    """
    total = 0.0
    for i in range(2000):
        total += _combine(_Pair(float(i), 2.0), k=3.0) + len(str(i))
    for i in range(300):
        total += float(_PROBE_ARRAY[i % 150]) * gen.standard_normal() + gen.gamma(2.0)
    return total


class SpeedProbe:
    """Samples the CPU's speed while a child runs, on the CPU the child runs on.

    On a shared VM the CPU's speed can drift by 1.5x within seconds while
    CPU time tracks wall time, so a command's wall time says as much about
    the host as about the program (see README.md, "Host speed"). A thread
    of this process, pinned to the same CPU as the child, wakes every
    PROBE_PERIOD_S and times probe_unit() in its own CPU time. Commands are
    then reported at the nominal speed: measured seconds times
    PROBE_NOMINAL_S over the mean unit time. The probe takes about 5% of the
    CPU from the child, on every command alike.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._gen = np.random.default_rng(2013)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            probe_unit(self._gen)
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PERFBENCH_SRC"] = str(SRC)
    return env


class Runner:
    """Spawns children one at a time and gives each the time left before the deadline.

    This process and every child are pinned to one CPU, so that the speed
    probe samples the CPU the command runs on.
    """

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.probe_samples: list[float] = []

    def spawn(self, cmd: list, log_path: Path) -> tuple:
        """Run ``cmd`` to its end: (exit code, wall seconds, peak RSS in MB, mean probe unit seconds)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting another command")
        with open(log_path, "wb") as log, SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        self.probe_samples += probe.samples
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, probe.mean_s


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _diagnostics_ess_min(out: Path) -> float:
    with open(out / "diagnostics.csv", encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    col = header.index("ess")
    return min(float(row[col]) for row in rows)


class WorkloadRun:
    def __init__(self, workload: Workload, seed: int, runner: Runner):
        self.workload = workload
        self.seed = seed
        self.runner = runner
        self.dir = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workload.config, indent=2, sort_keys=True))
        self.cohorts = {}
        self.executions: list[Execution] = []

    def cohort(self, k: int):
        if k not in self.cohorts:
            cohort = simulate(self.workload.kind, cohort_seed(self.seed, k))
            path = self.dir / f"cohort{k}.csv"
            write_cohort(cohort, path)
            self.cohorts[k] = (cohort, path)
        return self.cohorts[k]

    def setup_seconds(self) -> list:
        """Set-up times at the nominal speed, and as measured."""
        _, csv_path = self.cohort(0)
        times = []
        for i in range(SETUP_REPEATS):
            log_path = self.dir / f"setup{i}.txt"
            code, _, _, probe_s = self.runner.spawn([sys.executable, "-c", SETUP_CODE, str(csv_path)], log_path)
            lines = log_path.read_text(errors="replace").strip().splitlines()
            if code != 0:
                raise BenchError(f"set-up failed: {' '.join(lines[-5:])[-500:]}")
            measured = float(lines[-1])
            times.append((measured * PROBE_NOMINAL_S / probe_s, measured))
        return times

    def execute(self, k: int, traced: bool = False) -> Execution:
        cohort, csv_path = self.cohort(k)
        run_dir = self.dir / f"x{len(self.executions)}-c{k}{'-traced' if traced else ''}"
        out = run_dir / "out"
        run_dir.mkdir()
        report_path = run_dir / "report.json"
        cmd = [sys.executable, str(CHILD), str(report_path), "1" if traced else "0", "--",
               *self.workload.args, "--data", str(csv_path), "--config", str(self.config),
               "--seed", str(cohort_seed(self.seed, k)), "--out", str(out)]
        code, wall, rss, probe_s = self.runner.spawn(cmd, run_dir / "log.txt")
        ex = Execution(k, traced, code, wall, rss, probe_s)
        self.executions.append(ex)
        if code != 0 or not report_path.is_file():
            tail = (run_dir / "log.txt").read_text(errors="replace")[-400:]
            ex.failures.append(f"exit code {code}: {tail}")
            return ex
        ex.report = json.loads(report_path.read_text())
        ex.failures += check_outputs(self.workload, out, cohort)
        ex.digest = digest(out)
        fits = ex.report["fits"]
        if not fits:
            ex.failures.append("the command ran no fit")
            return ex
        ex.ess_min = min(f["ess_min"] for f in fits)
        if (out / "diagnostics.csv").is_file() and not ex.failures:
            written = _diagnostics_ess_min(out)
            if written != ex.ess_min:
                ex.failures.append(f"diagnostics.csv ESS {written} differs from the fitted draws' {ex.ess_min}")
            ex.ess_min = written
        return ex


def layer_metrics(traced: Execution, untraced_reference: list) -> dict:
    """Per-layer metrics from the traced run, by the names BENCHMARK.json uses.

    Span times are scaled to the probe's nominal speed, as wall_s is.
    """
    trace = traced.report["trace"]
    counts = Counter(trace["counts"])  # a counter that never fired reads 0
    m = {}
    for name, s in trace["spans"].items():
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.total_s"] = s["total_s"] * traced.scale
        m[f"{name}.self_s"] = s["self_s"] * traced.scale

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    for key in ("filtering.filter_core.months", "filtering.ffbs_sample.months",
                "mcmc.find_mode_and_hessian.target_evals", "mcmc.rw_metropolis.proposals",
                "mcmc.fit_dm5.moves", "evaluation.cdf_component_evals", "io.bytes_written"):
        m[key] = counts[key]
    m["filtering.filter_core.us_per_month"] = ratio(
        m["filtering.filter_core.self_s"], m["filtering.filter_core.months"], 1e6)
    proposals = m["mcmc.rw_metropolis.proposals"]
    m["mcmc.rw_metropolis.us_per_step"] = ratio(m["mcmc.rw_metropolis.total_s"], proposals, 1e6)
    m["mcmc.rw_metropolis.accept_ratio"] = ratio(counts["mcmc.rw_metropolis.accepted"], proposals)
    m["mcmc.fits"] = m["mcmc.fit_dm_static.calls"] + m["mcmc.fit_bpm.calls"]
    m["mcmc.chains_per_fit"] = ratio(m["mcmc.rw_metropolis.calls"], m["mcmc.fits"])
    m["mcmc.fit_dm5.ms_per_sweep"] = ratio(m["mcmc.fit_dm5.total_s"], counts["mcmc.fit_dm5.sweeps"], 1e3)
    m["mcmc.fit_dm5.accept_ratio"] = ratio(counts["mcmc.fit_dm5.accepted"], m["mcmc.fit_dm5.moves"])
    fits = traced.report["fits"]
    m["mcmc.fit_dm5.beta_path_ess_min"] = min(
        (f["beta_path_ess_min"] for f in fits if "beta_path_ess_min" in f), default=0.0)
    worst = min(fits, key=lambda f: f["ess_min"] / f["retained"])
    m["mcmc.ess_per_draw"] = worst["ess_min"] / worst["retained"]
    m["mcmc.retained_draws"] = worst["retained"]
    m["io.write_s"] = m["io.write_csv.total_s"] + m["io.write_json.total_s"]
    m["trace.overhead_s"] = traced.norm_s - statistics.median(e.norm_s for e in untraced_reference)
    m["trace.spans"] = sum(s["calls"] for s in trace["spans"].values())
    return m


def audit_trace(traced: Execution, untraced_digest: str) -> list:
    trace = traced.report["trace"]
    failures = []
    if traced.digest != untraced_digest:
        failures.append("traced outputs differ from the untraced run's bytes")
    if trace["roots"] != ["cli.run_command"]:
        failures.append(f"span roots are {trace['roots']}, expected one cli.run_command")
    # self times of the spans under cli.run_command must add up to its duration
    if abs(trace["self_sum_s"] - trace["root_s"]) > 1e-6 or trace["min_self_s"] < -1e-6:
        failures.append("span self times double count or leave out time")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner) -> tuple:
    """Returns (result object for the last line, record for record.json)."""
    run = WorkloadRun(WORKLOADS[name], seed, runner)
    runner.probe_samples.clear()
    setups = run.setup_seconds()
    # a new cohort starts only while there is time left for it and for the repeat
    start = time.perf_counter()
    k = 0
    while True:
        run.execute(k)
        k += 1
        if time.perf_counter() - start + 2 * max(e.wall_s for e in run.executions) > seconds:
            break
    repeat = run.execute(0)
    first = run.executions[0]
    if not first.failures and not repeat.failures and repeat.digest != first.digest:
        repeat.failures.append("rerunning the reference cohort with the same seed changed the output bytes")
    if not first.ess_min:
        raise BenchError(f"the reference cohort's command failed: {first.failures}")
    timed = [e for e in run.executions if e.exit_code == 0]

    wall_s = statistics.median(e.norm_s for e in timed)
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(norm for norm, _ in setups),
        "ess_per_s": first.ess_min / wall_s,
        "peak_rss_mb": statistics.median(e.rss_mb for e in timed),
        "measured_wall_s": statistics.median(e.wall_s for e in timed),
        "measured_setup_s": statistics.median(measured for _, measured in setups),
    }
    rebound = None
    if trace:
        traced = run.execute(0, traced=True)
        if not traced.failures:
            traced.failures += audit_trace(traced, first.digest)
            values.update(layer_metrics(traced, [e for e in timed if e.cohort == 0]))
            rebound = traced.report["trace"]["rebound"]
    values["host.ref_s"] = statistics.median(runner.probe_samples)
    failed = sum(1 for e in run.executions if e.failures)
    attempted = len(run.executions)
    values["ok_frac"] = (attempted - failed) / attempted
    values["fail_frac"] = failed / attempted

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "host": host_record(),
        "digest_first_cohort": first.digest,
        "executions": [{"cohort": e.cohort, "traced": e.traced, "exit_code": e.exit_code,
                        "wall_s": e.norm_s, "measured_wall_s": e.wall_s, "probe_s": e.probe_s,
                        "peak_rss_mb": e.rss_mb, "ess_min": e.ess_min,
                        "digest": e.digest, "failures": e.failures} for e in run.executions],
        "setup_s": [{"wall_s": norm, "measured_wall_s": measured} for norm, measured in setups],
        "pinned_cpu": runner.cpu,
        "values": values,
        "rebound": rebound,
    }
    (run.dir / "record.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "values": values}, record


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def select(values: dict, metrics: list) -> dict:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dynpois" / "__init__.py").is_file():
        print(f"perfbench: no dynpois source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    metrics = specs["per_layer"] if args.trace else specs["end_to_end"]
    runner = Runner()
    try:
        if args.workload != "all":
            result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), runner)
            failures = [f for e in record["executions"] for f in e["failures"]]
            for text in failures:
                print(f"FAILED: {text}")
            values = result.pop("values")
            print(f"{args.workload}: {result['attempted']} commands, {result['failed']} failed "
                  f"(fail_frac {values['fail_frac']}), host {record['host']['cpu']}")
            result["metrics"] = select(values, metrics)
            for name, m in result["metrics"].items():
                print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
            print(json.dumps(result))
            return 0
        # every workload in turn, one table; each gets the time limit of a single run
        rows, total = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            runner.deadline = time.monotonic() + DEADLINE_S
            result, _ = run_workload(name, args.seed, args.seconds, bool(args.trace), runner)
            rows[name] = result["values"]
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric_name, m in select(result["values"], metrics).items():
                total["metrics"][f"{name}.{metric_name}"] = m
        names = [m["name"] for m in metrics] + ["fail_frac"] * (not args.trace)
        print(f"{'metric':<45}" + "".join(f"{w:>16}" for w in rows))
        for metric_name in names:
            unit = next((m["unit"] for m in metrics if m["name"] == metric_name), "ratio")
            print(f"{metric_name + ' [' + unit + ']':<45}" + "".join(f"{rows[w][metric_name]:>16.6g}" for w in rows))
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
