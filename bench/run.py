"""Benchmark of the corefeval CLI on three seeded corpus shapes.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all          # every workload in turn
  python3 bench/run.py --quick ...             # smoke-test sizes
  python3 bench/run.py --record-reference      # rewrite reference.json

Run from the root of a source checkout; the CLI and the traced run use
the package under ``src/``.  With ``--trace 0`` the benchmark times CLI
subprocesses in a closed loop, one at a time, for ``--seconds`` seconds
and prints the end-to-end metrics.  With ``--trace 1`` it runs every
command once through the CLI and three times in process (untraced,
traced, untraced), ignores ``--seconds``, and prints the per-layer
metrics.  Every report is checked (outputs.py).
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpora
import outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
COMMANDS = ("score", "stratify", "pathology", "stats")
# The console script's entry point, plus a record of the child's own peak
# RSS (VmHWM).  os.wait4's ru_maxrss cannot be used: on Linux it keeps the
# RSS of the forking parent across exec, so it would report this process.
CLI_ENTRY = """\
import os, sys
from corefeval.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["BENCH_HWM"], "w") as out:
        out.write(status.read().split("VmHWM:")[1].split()[0])
sys.exit(code)
"""
TIMEOUT_S = 120.0
PROBE_CHAINS = {False: 400, True: 50}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Cli:
    """Runs one child interpreter at a time and checks what it prints."""

    def __init__(self):
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_kb = 0

    def spawn(self, args: list[str]) -> tuple[bool, float, str]:
        """Run one child: success, wall seconds and standard output."""
        out_path = WORK / f"stdout-{os.getpid()}.txt"
        err_path = WORK / f"stderr-{os.getpid()}.txt"
        hwm_path = WORK / f"hwm-{os.getpid()}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=dict(self.env, BENCH_HWM=str(hwm_path)),
                                    cwd=ROOT)
            try:
                code = _reap(proc, TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            took = time.perf_counter() - start
        self.attempted += 1
        if hwm_path.exists():
            self.peak_kb = max(self.peak_kb, int(hwm_path.read_text() or 0))
            os.remove(hwm_path)
        if code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
            what = " ".join(args[2:3]) or args[-1]
            self.problems.append(f"{what} exited {code}: {tail.strip()}")
        text = out_path.read_text(encoding="utf-8", errors="replace")
        os.remove(out_path)
        os.remove(err_path)
        return code == 0, took, text

    def command(self, argv: list[str]) -> tuple[bool, float, str]:
        return self.spawn(["-c", CLI_ENTRY, *argv])

    def verdict(self, ok: bool, problems: list[str]) -> None:
        if not ok or problems:
            self.failed += 1
            self.problems.extend(problems)


def _reap(proc: subprocess.Popen, timeout: float) -> int:
    """Block until the child exits, killing it after ``timeout`` seconds."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status = os.waitpid(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode


def _argv(shape: corpora.Shape, command: str, paths: tuple[str, str], fmt: str):
    argv = [command, "--key", paths[0]]
    if command != "stats":
        argv += ["--response", paths[1], "--averaging", shape.averaging]
    return argv + ["--output", fmt]


def _check(command: str, fmt: str, text: str, exp: outputs.Expected,
           json_reports: dict) -> list[str]:
    try:
        if fmt == "json":
            data = json.loads(text)
            json_reports.setdefault(command, data)
            return outputs.check_json(command, data, exp)
        return outputs.check_text(command, fmt, text.rstrip("\n"), json_reports[command])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{command} {fmt}: unreadable report ({exc!r})"]


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"n={n} (a tail percentile needs 11 samples)"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f} s n={n}"


def end_to_end(shape, paths, exp, cli: Cli, seconds: float):
    probe = ["-c", "import corefeval.cli"]
    cli.verdict(cli.spawn(probe)[0], [])  # this start also fills the bytecode caches
    json_reports: dict = {}
    for command in COMMANDS:
        if shape.outputs[command] != "json":
            ok, _, text = cli.command(_argv(shape, command, paths, "json"))
            cli.verdict(ok, _check(command, "json", text, exp, json_reports) if ok else [])
    # Closed loop in whole rounds, so every command gets the same number of
    # samples and start-up is sampled throughout the run; the deadline is
    # checked between rounds.
    samples: dict[str, list[float]] = {c: [] for c in ("setup", *COMMANDS)}
    deadline = time.perf_counter() + seconds
    while not samples["setup"] or time.perf_counter() < deadline:
        ok, took, _ = cli.spawn(probe)
        cli.verdict(ok, [])
        samples["setup"].append(took)
        for command in COMMANDS:
            fmt = shape.outputs[command]
            ok, took, text = cli.command(_argv(shape, command, paths, fmt))
            cli.verdict(ok, _check(command, fmt, text, exp, json_reports) if ok else [])
            samples[command].append(took)
    metrics, notes = {}, {}
    for name, values in samples.items():
        metrics[f"{name}_s"] = statistics.median(values)
        notes[f"{name}_s"] = _tail(values)
    metrics["peak_rss_mb"] = cli.peak_kb / 1024
    return metrics, notes, E2E_UNITS


def traced(shape, paths, exp, cli: Cli, docs, seed: int, quick: bool):
    import layers

    replay = layers.Replay(shape, *paths)
    wall, cli_ok, cli_texts = {}, {}, {}
    for command in COMMANDS:
        cli_ok[command], wall[command], cli_texts[command] = cli.command(
            _argv(shape, command, paths, shape.outputs[command]))
    # Untraced passes on both sides of the traced one, so that warming up
    # the heap does not count as tracing overhead.
    plain_results, before = replay.timed(layers.Tracer(False), shape.outputs)
    tracer = layers.Tracer(True)
    with tracer.patched():
        traced_results, traced_s = replay.timed(tracer, shape.outputs)
    _, after = replay.timed(layers.Tracer(False), shape.outputs)
    plain = {c: (before[c] + after[c]) / 2 for c in COMMANDS}
    for command in COMMANDS:
        fmt = shape.outputs[command]
        report, text = plain_results[command]
        json_reports = {}
        problems = _check(command, "json", layers.emit_report(report, "json"), exp,
                          json_reports)
        if fmt != "json":
            problems += _check(command, fmt, text, exp, json_reports)
        for label, other in (("CLI", cli_texts[command].rstrip("\n")),
                             ("traced", traced_results[command][1])):
            if other != text:
                problems.append(f"{command}: {label} output differs from in-process")
        cli.verdict(cli_ok[command], problems)
    tracer.write(str(WORK / f"spans-{shape.name}.jsonl"), shape.name,
                 f"{shape.name}-seed{seed}")
    metrics = layers.layer_metrics(tracer, plain, traced_s, wall)
    metrics.update(replay.memory())
    metrics.update(layers.ceaf_work(docs))
    metrics["metrics.ceaf_e_scaling_exp"] = layers.ceaf_e_scaling(
        seed, PROBE_CHAINS[quick])
    share = (metrics["metrics.ceaf_m_s"] + metrics["metrics.ceaf_e_s"]) / max(
        metrics["corpus.score_corpus_s"], 1e-12)
    notes = {"corpus.score_corpus_s": f"ceaf_m + ceaf_e = {share:.1%} of it"}
    return metrics, notes, LAYER_UNITS


def _reference(quick: bool, workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return recorded["quick" if quick else "full"].get(workload, {})


def run_workload(shape: corpora.Shape, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    docs = corpora.generate(shape, seed)
    summary = corpora.summary(docs)
    print(f"shape {shape.name} seed={seed}: {json.dumps(summary)}", flush=True)
    ext = shape.fmt
    paths = (str(WORK / f"{shape.name}-{os.getpid()}.key.{ext}"),
             str(WORK / f"{shape.name}-{os.getpid()}.response.{ext}"))
    corpora.write(docs, shape.fmt, *paths)
    exp = outputs.Expected(docs, _reference(quick, shape.name, seed))
    cli = Cli()
    try:
        if trace:
            metrics, notes, units = traced(shape, paths, exp, cli, docs, seed, quick)
        else:
            metrics, notes, units = end_to_end(shape, paths, exp, cli, seconds)
    finally:
        for path in paths:
            os.remove(path)
    for name, unit in units.items():
        print(f"{shape.name:16s} {name:28s} {metrics[name]:14.6g} {unit:8s} "
              f"{notes.get(name, '')}".rstrip())
    frac = cli.failed / cli.attempted
    print(f"{shape.name:16s} {'failed_ops_frac':28s} {frac:14.6g} {'frac':8s} "
          f"{cli.failed}/{cli.attempted} CLI invocations")
    for problem in cli.problems[:20]:
        print(f"{shape.name:16s} problem: {problem}")
    return {"correct": not cli.problems, "attempted": cli.attempted,
            "failed": cli.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def record_reference() -> None:
    """Store the default seed's json scores for both sizes."""
    recorded: dict = {}
    for quick in (False, True):
        mode = recorded.setdefault("quick" if quick else "full", {})
        for shape in corpora.shapes(quick).values():
            docs = corpora.generate(shape, DEFAULT_SEED)
            paths = (str(WORK / f"ref-{os.getpid()}.key"),
                     str(WORK / f"ref-{os.getpid()}.response"))
            corpora.write(docs, shape.fmt, *paths)
            exp = outputs.Expected(docs, None)
            cli = Cli()
            mode[shape.name] = {}
            for command in COMMANDS:
                argv = _argv(shape, command, paths, "json") + ["--format", shape.fmt]
                ok, _, text = cli.command(argv)
                problems = _check(command, "json", text, exp, {}) if ok else ["failed"]
                if problems or cli.problems:
                    raise SystemExit(f"error: {shape.name} {command}: {problems}")
                mode[shape.name][command] = outputs.floats(json.loads(text))
            for path in paths:
                os.remove(path)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    # Exit through Python on SIGTERM too, so that Cli.spawn kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "corefeval" / "cli.py").is_file():
        print(f"error: no corefeval sources under {SRC}", file=sys.stderr)
        return 2
    shapes = corpora.shapes(args.quick)
    if args.workload != "all" and args.workload not in shapes:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(shapes)})")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    names = list(shapes) if args.workload == "all" else [args.workload]
    results = {name: run_workload(shapes[name], args.seed, args.seconds,
                                  bool(args.trace), args.quick) for name in names}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
