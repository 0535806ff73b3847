"""Stage-level benchmark of the kgreason CLI pipeline.

usage: python3 perfbench/run.py --workload deep|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the stages are `python -m
kgreason.cli ...` children with `src` on PYTHONPATH. The seed generates the
graph and the query files (set-up); the stages see only those files. Stages
run one child at a time (a single closed-loop client), each timed from spawn
to exit, with peak RSS from that child's own rusage.

--trace 0  sets up three times, then repeats the stage chain as often as it
           fits in a window of --seconds (at least once) and reports the
           end-to-end metrics. Before each set-up and each stage a reference
           child that only imports numpy is timed. A time metric is the
           median over the repeats of wall / (median reference time of the
           same chain, or of the set-ups), times REF_S, so that it does not
           follow the host's speed drifting from one minute to the next.
--trace 1  sets up once, runs the chain untraced and through
           perfbench/tracer.py, TRACE_PAIRS times each, alternating, and
           reports the per-layer metrics plus the tracing overhead of every
           stage.

Either way the outputs are checked (see checks.py) outside the timed
stages, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Work files live under
.perfbench_work/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from graphgen import write_graph  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

STAGES = ("train", "calibrate", "build", "eval", "ablate")
SETUP_REPEATS = 3
# Nominal wall seconds of the reference task (a child that only imports
# numpy). Every time metric is a ratio to reference tasks timed alongside it,
# scaled by this constant; see "Noise" in README.md.
REF_S = 0.2
RUN_BUDGET_S = 170.0          # every child is killed past this point
ROW_SAMPLES = 64
TRACE_PAIRS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class StageFailed(RuntimeError):
    pass


class Runner:
    """Spawns CLI children one at a time and records wall time and peak RSS."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.spawned = 0

    def spawn(self, argv: list[str], out) -> tuple[float, int, object]:
        """Run one child to its end, killed at the run budget; returns
        (wall seconds, exit code, its own rusage)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StageFailed(f"run budget exhausted before {argv[1:4]}")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # reaped by wait4; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def cli(self, args: list[str], log: Path, trace: Path | None = None):
        """Run one CLI command; returns (wall seconds, peak RSS in MB)."""
        if trace is None:
            argv = [sys.executable, "-m", "kgreason.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace),
                    repr(time.time()), *args]
        with open(log, "wb") as out:
            wall, code, usage = self.spawn(argv, out)
        self.spawned += 1
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise StageFailed(f"{args[0]} exited {code}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def reference(self) -> float:
        """Wall seconds of the reference task, which runs no kgreason code."""
        wall, code, _ = self.spawn([sys.executable, "-c", "import numpy"],
                                   subprocess.DEVNULL)
        if code != 0:
            raise StageFailed(f"reference task exited {code}")
        return wall


# ------------------------------------------------------------------ set-up ---

def set_up(runner: Runner, wl: Workload, seed: int, out: Path,
           trace_dir: Path | None = None) -> float:
    """Graph files and query files; returns wall seconds."""
    start = time.perf_counter()
    graph = write_graph(wl.graph, seed, out)
    files = [f"--{split}={graph[split]}" for split in ("train", "valid", "test")]
    jobs = [("train.queries", "train", wl.train_queries, "train", 1),
            ("eval.queries", wl.eval_structures, wl.eval_queries, "test", 2)]
    if wl.ablate_structures != wl.eval_structures:
        jobs.append(("ablate.queries", wl.ablate_structures, wl.ablate_queries, "test", 3))
    for name, structures, count, split, offset in jobs:
        trace = None if trace_dir is None else trace_dir / f"setup-{name}.json"
        runner.cli(["gen-queries", *files, f"--structures={structures}",
                    f"--count={count}", f"--split={split}",
                    f"--seed={seed * 10 + offset}", f"--out={out / name}"],
                   out / f"{name}.log", trace)
    if not (out / "ablate.queries").exists():
        shutil.copyfile(out / "eval.queries", out / "ablate.queries")
    return time.perf_counter() - start


def setup_digest(setup_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in ("train.tsv", "valid.tsv", "test.tsv", "train.queries",
                 "eval.queries", "ablate.queries"):
        digest.update((setup_dir / name).read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------ stages ---

def stage_args(wl: Workload, seed: int, s: Path, r: Path) -> dict[str, list[str]]:
    graph = [f"--train={s / 'train.tsv'}", f"--valid={s / 'valid.tsv'}",
             f"--test={s / 'test.tsv'}"]
    calibration = [f"--alpha={wl.alpha}", f"--epsilon={wl.epsilon}"]
    return {
        "train": ["train-kgc", *graph, f"--dim={wl.dim}", f"--epochs={wl.epochs}",
                  f"--seed={seed}", f"--out={r / 'model.npz'}"],
        "calibrate": ["calibrate", *graph, f"--model={r / 'model.npz'}",
                      f"--queries={s / 'train.queries'}", *wl.calibrate_flags,
                      *calibration, f"--seed={seed}", f"--out={r / 'w.npz'}"],
        "build": ["build-tensor", *graph, f"--model={r / 'model.npz'}",
                  f"--w={r / 'w.npz'}", *calibration, f"--out={r / 'graph.tensor'}"],
        "eval": ["eval", f"--tensor={r / 'graph.tensor'}",
                 f"--queries={s / 'eval.queries'}", f"--report={r / 'eval.kv'}"],
        "ablate": ["ablate", *graph, f"--model={r / 'model.npz'}", f"--w={r / 'w.npz'}",
                   f"--queries={s / 'ablate.queries'}", *calibration,
                   f"--out-dir={r / 'ablation'}"],
    }


def run_chain(runner: Runner, wl: Workload, seed: int, setup_dir: Path, rep_dir: Path,
              traced: bool = False) -> dict[str, tuple[float, float, float]]:
    """stage -> (wall seconds, peak RSS in MB, wall seconds of the reference
    task run just before the stage)."""
    rep_dir.mkdir(parents=True)
    results = {}
    for stage, args in stage_args(wl, seed, setup_dir, rep_dir).items():
        trace = rep_dir / f"{stage}.trace.json" if traced else None
        ref = runner.reference()
        results[stage] = (*runner.cli(args, rep_dir / f"{stage}.log", trace), ref)
    return results


def output_digest(rep_dir: Path) -> dict[str, str]:
    """Content digests of every stage output; the .npz members are compared
    by array content because zip members carry timestamps."""
    out = {}
    for name in ("model.npz", "w.npz"):
        with np.load(rep_dir / name) as data:
            out[name] = hashlib.sha256(b"".join(
                key.encode() + np.ascontiguousarray(data[key]).tobytes()
                for key in sorted(data.files))).hexdigest()
    paths = [rep_dir / "graph.tensor", rep_dir / "eval.kv",
             *sorted((rep_dir / "ablation").glob("*.report")),
             rep_dir / "ablation" / "ablation.summary"]
    for path in paths:
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# ------------------------------------------------------------------ checks ---

def check_outputs(wl: Workload, seed: int, setup_dir: Path, rep_dir: Path,
                  log) -> dict[str, list[str]]:
    """name -> failure messages, for the outputs of one chain."""
    results: dict[str, list[str]] = {}

    def run(name, fn, *args):
        try:
            results[name] = fn(*args)
        except Exception as exc:  # a crash in a check is that check failing
            results[name] = [f"{type(exc).__name__}: {exc}"]

    try:
        graph = checks.Graph(setup_dir)
        tensor = checks.Tensor(rep_dir / "graph.tensor")
        reference = {mode: checks.ReferenceRows(rep_dir / "model.npz", rep_dir / "w.npz",
                                                graph, mode, wl.epsilon, wl.alpha)
                     for mode in ("S12", "S123", "S1234")}
    except (OSError, KeyError, ValueError) as exc:
        log(f"check outputs_readable FAILED: {exc}")
        return {"outputs_readable": [f"{type(exc).__name__}: {exc}"]}
    run("tensor_invariants", checks.tensor_invariants, tensor, graph, wl.epsilon)
    run("pinned_triplets", checks.pinned_triplets, tensor, graph)
    run("sampled_rows", checks.sampled_rows, tensor, reference["S1234"],
        np.random.default_rng(seed), ROW_SAMPLES)

    def structures(spec):
        return checks.STRUCTURE_ORDER if spec == "all" else tuple(spec.split(","))

    def eval_report():
        queries = checks.read_queries(setup_dir / "eval.queries",
                                      structures(wl.eval_structures), wl.eval_queries)
        return checks.compare_report(rep_dir / "eval.kv",
                                     checks.naive_report(queries, tensor, graph.n))

    def ablate_reports():
        queries = checks.read_queries(setup_dir / "ablate.queries",
                                      structures(wl.ablate_structures), wl.ablate_queries)
        fails = []
        for mode, rows in reference.items():
            fails += checks.compare_report(rep_dir / "ablation" / f"{mode}.report",
                                           checks.naive_report(queries, rows, graph.n))
        return fails

    run("eval_report", eval_report)
    run("ablate_reports", ablate_reports)
    for name, fails in results.items():
        for msg in fails[:5]:
            log(f"check {name} FAILED: {msg}")
    return results


# ------------------------------------------------------------- environment ---

def environment(runner: Runner) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (runner.root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": {k: runner.env.get(k) for k in BLAS_THREAD_VARS},
        "commit": commit,
    }


# -------------------------------------------------------------------- main ---

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(groups) -> float:
    """Seconds on a host where the reference task takes REF_S.

    `groups` holds (walls, references) pairs of lists timed close together:
    one chain, or the set-ups. Each wall time is divided by the median
    reference time of its group; the result is the median of all ratios."""
    return REF_S * statistics.median(
        wall / statistics.median(refs) for walls, refs in groups for wall in walls)


def measure(runner: Runner, wl: Workload, args, log) -> tuple[dict, dict]:
    """--trace 0: returns (metrics, check results)."""
    setups = []
    for k in range(SETUP_REPEATS):
        ref = runner.reference()
        setups.append((set_up(runner, wl, args.seed, runner.work / f"setup{k}"), ref))
        log(f"setup {k}: {setups[-1][0]:.3f}s ref {ref:.4f}s")
    setup_dir = runner.work / "setup0"
    digests = {setup_digest(runner.work / f"setup{k}") for k in range(SETUP_REPEATS)}
    check_results = {"setup_deterministic":
                     [] if len(digests) == 1 else ["set-up files differ between repeats"]}

    # start another chain only while it should still end inside the window
    reps = []
    start = time.monotonic()
    while not reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= args.seconds:
        reps.append(run_chain(runner, wl, args.seed, setup_dir,
                              runner.work / f"rep{len(reps)}"))
    for k, rep in enumerate(reps):
        log(f"rep {k}: " + "  ".join(
            f"{s} {rep[s][0]:.3f}s/{rep[s][1]:.0f}MB ref {rep[s][2]:.4f}s" for s in STAGES))
    first = output_digest(runner.work / "rep0")
    check_results["reps_identical"] = [
        f"rep {k} output differs" for k in range(1, len(reps))
        if output_digest(runner.work / f"rep{k}") != first]
    check_results.update(check_outputs(wl, args.seed, setup_dir, runner.work / "rep0", log))

    quality_file = (runner.work / "rep0" / "eval.kv" if wl.name == "deep"
                    else runner.work / "rep0" / "ablation" / "S1234.report")
    quality = checks.read_kv(quality_file)
    metrics = {"setup_s": metric(scaled([tuple(zip(*setups))]), "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = metric(
            scaled(([r[stage][0]], [r[s][2] for s in STAGES]) for r in reps), "s")
    for stage in STAGES:
        metrics[f"{stage}_rss_mb"] = metric(
            statistics.median(r[stage][1] for r in reps), "MB")
    metrics["avg_p"] = metric(float(quality["avg_p"]), "mrr")
    metrics["avg_n"] = metric(float(quality["avg_n"]), "mrr")
    return metrics, check_results


def trace(runner: Runner, wl: Workload, args, log) -> tuple[dict, dict]:
    """--trace 1: returns (metrics, check results).

    Untraced and traced chains alternate TRACE_PAIRS times; layer metrics
    are medians over the traced chains and the overhead of a stage is its
    median traced wall time minus its median untraced wall time."""
    setup_dir = runner.work / "setup0"
    traces = runner.work / "traces"
    traces.mkdir(parents=True)
    set_up(runner, wl, args.seed, setup_dir, trace_dir=traces)
    setup_traces = [json.loads(p.read_text()) for p in sorted(traces.glob("*.json"))]
    plain, traced, layer_values = [], [], []
    for k in range(TRACE_PAIRS):
        plain.append(run_chain(runner, wl, args.seed, setup_dir, runner.work / f"plain{k}"))
        traced_dir = runner.work / f"traced{k}"
        traced.append(run_chain(runner, wl, args.seed, setup_dir, traced_dir, traced=True))
        stage_traces = {s: json.loads((traced_dir / f"{s}.trace.json").read_text())
                        for s in STAGES}
        values, table = layers.summarize(wl, stage_traces, setup_traces)
        layer_values.append(values)
    for line in table:
        log(line)

    reference = output_digest(runner.work / "plain0")
    check_results = {"trace_changes_nothing": [
        f"{d} outputs differ from plain0" for d in
        [f"plain{k}" for k in range(1, TRACE_PAIRS)] + [f"traced{k}" for k in range(TRACE_PAIRS)]
        if output_digest(runner.work / d) != reference]}
    check_results.update(check_outputs(wl, args.seed, setup_dir, runner.work / "plain0", log))

    metrics = {}
    for name, (unit, _) in layers.PER_LAYER.items():
        if name.startswith("trace.overhead."):
            stage = name[len("trace.overhead."):-len("_s")]
            value = (statistics.median(t[stage][0] for t in traced)
                     - statistics.median(p[stage][0] for p in plain))
        else:
            value = statistics.median(v[name] for v in layer_values)
        metrics[name] = metric(float(value), unit)
    return metrics, check_results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "kgreason" / "cli.py").is_file():
        print(f"error: {root} is not a kgreason checkout (no src/kgreason/cli.py)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + RUN_BUDGET_S)

    def log(msg):
        print(msg, flush=True)

    try:
        log("env " + json.dumps(environment(runner), sort_keys=True))
        collect = trace if args.trace else measure
        metrics, check_results = collect(runner, wl, args, log)
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run is still using it
            pass

    failed_checks = sum(1 for fails in check_results.values() if fails)
    attempted = runner.spawned + len(check_results)
    if not args.trace:
        metrics["pass_frac"] = metric(1.0 - failed_checks / attempted, "fraction")
    for name, m in metrics.items():
        log(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed_checks == 0, "attempted": attempted,
                      "failed": failed_checks, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
