"""End-to-end and per-layer benchmark of the ``bratsfuse`` CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload fuse-staple --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 10 --trace 0

Each run generates its workload's inputs from ``--seed`` (see ``inputs.py``)
and checks every output against the references in ``reference.py``.

``--trace 0`` times the workload's CLI command as a subprocess, repeating it
until ``--seconds`` have passed and ``MIN_SAMPLES`` are taken, and reports
the end-to-end metrics: medians of wall time, CPU time and peak RSS of the
CLI process tree, the median start-up time of the CLI, and the fused or
evaluated quality.

``--trace 1`` runs the same command in-process at ``--jobs 1`` through
``traced_run.py``, once plainly and once with every layer's public functions
wrapped by ``tracing.py``, and reports the per-layer metrics.

Outputs must be byte-identical between invocations of one run and between
runs of one seed in the same checkout (digests are kept under
``.bench_work/``). A human-readable table goes to stdout; the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("fuse-staple", "fuse-soft", "eval-batch")
# --jobs of the timed command. eval-batch uses every core of the reference
# machine (2) so the pipeline's process pool is on the measured path.
JOBS = {"fuse-staple": 1, "fuse-soft": 1, "eval-batch": 2}
# Fewest timed samples per run; a run also lasts at least --seconds. A
# fuse-soft sample is short and varies by up to 15 % within a run.
MIN_SAMPLES = {"fuse-staple": 1, "fuse-soft": 3, "eval-batch": 1}
SETUP_SAMPLES = 7
# Memory touched just before the first timed command of a run, about the
# command's peak RSS. On a virtual machine whose idle memory the host takes
# back, the first process to touch it again waits for the host (measured at
# about 1 s per GB against 0.3 s per GB once backed), which would make the
# first sample of a run slower than the rest for reasons outside the program.
WARM_MB = {"fuse-staple": 1024, "fuse-soft": 2304, "eval-batch": 256}

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "dsc_mean": ("1", "higher"),
    "dsc_et": ("1", "higher"),
    "hd95_mean_mm": ("mm", "lower"),
    "success_rate": ("1", "higher"),
}

# The layer each workload was chosen to load: its self time should lead.
EXPECTED_LEADERS = {
    "fuse-staple": ("fusion.staple_binary",),
    "fuse-soft": ("nifti.load_probmap", "fusion.average_probs"),
    "eval-batch": ("metrics.edt",),
}


@dataclass
class Outcome:
    """Cases attempted, and the first failure reason of each failed one,
    keyed by invocation and case."""

    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    def fail(self, invocation: str, cases, reason: str) -> None:
        for c in cases:
            self.failures.setdefault(f"{invocation} {c}", reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


def cli_args(workload: str, work: Path, out: Path, jobs: int) -> list[str]:
    if workload == "eval-batch":
        return ["eval", str(work / "pred"), str(work / "gt"), "--out", str(out),
                "--jobs", str(jobs)]
    return ["fuse", "--config", str(work / "fuse_config.json"), "--jobs", str(jobs),
            "--out", str(out)]


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_helper(script: str, args: list[str], cwd: Path, log: Path) -> bytes:
    """Run one of the benchmark's helper scripts with the package importable;
    returns its stdout and raises if it fails."""
    with open(log, "ab") as err:
        # Own session: on interruption the whole tree, pool workers included,
        # is killed and reaped.
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / script), *args], cwd=cwd,
                                env=cli_env(), stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        tail = log.read_bytes()[-4000:].decode(errors="replace")
        raise RuntimeError(f"{script} exited {proc.returncode}; its stderr ends:\n{tail}")
    return out


def warm_memory(mb: int) -> None:
    np.ones(mb * 2**20 // 8)


def run_cli(args: list[str], cwd: Path, log: Path) -> dict:
    """Run the CLI through ``timed.py``: exit code ``rc``, ``wall_s``,
    ``cpu_s`` and ``peak_rss_mb`` of the CLI process tree."""
    return json.loads(run_helper("timed.py", [sys.executable, "-m", "bratsfuse.cli", *args],
                                 cwd, log))


def digests(out: Path) -> dict[str, str]:
    """sha256 of every NIfTI and CSV output."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.suffix in (".nii", ".csv")
    }


def check_stored(path: Path, key: str, got: dict[str, str]) -> str | None:
    """Compare output digests with those an earlier run stored under ``key``
    in ``path``, or store them if none did; None when they agree."""
    table = json.loads(path.read_text()) if path.is_file() else {}
    if key in table:
        return None if table[key] == got else f"output digests differ from an earlier run of {key}"
    table[key] = got
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def digest_key(workload: str, seed: int) -> str:
    """Workload, seed and generator version: the inputs a digest belongs to."""
    version = hashlib.sha256((BENCH_DIR / "inputs.py").read_bytes()).hexdigest()[:12]
    return f"{workload}/{seed}/{version}"


class Checker:
    """Reference results for one generated workload, and the output checks."""

    def __init__(self, workload: str, work: Path):
        import inputs

        self.workload = workload
        self.gt = {p.stem: ref.read_nifti(p) for p in sorted((work / "gt").glob("*.nii"))}
        self.cases = sorted(self.gt)
        if workload == "eval-batch":
            self.want = {
                c: ref.scores(ref.read_nifti(work / "pred" / f"{c}.nii")[0], *self.gt[c])
                for c in self.cases
            }
            return
        config = json.loads((work / "fuse_config.json").read_text())
        models = config["cases"][0]["models"]
        data, spacing = self.gt["case_000"]
        self.shape, self.spacing = data.shape, spacing
        if workload == "fuse-staple":
            raters = [ref.read_nifti(work / m["labelmap"])[0] for m in models]
            self.box, self.labels, self.iterations = ref.staple_fuse(raters, inputs.ET_THRESHOLD)
        else:
            manifests = [work / p for p in models[0]["prob_manifests"]]
            self.box = ref.union_box(data > 0, pad=int(inputs.MARGIN_MM / min(spacing)))
            self.labels = ref.soft_fuse(manifests, self.box, inputs.ET_THRESHOLD)

    def check(self, out: Path, rc: int, outcome: Outcome) -> dict:
        """Check one output directory; returns per-case quality scores."""
        outcome.attempted += len(self.cases)
        tag = out.name
        if rc != 0:
            outcome.fail(tag, self.cases, f"CLI exit code {rc}")
            return {}
        if self.workload == "eval-batch":
            try:
                got = ref.read_cases_csv(out / "cases.csv")
            except (OSError, KeyError, ValueError) as e:
                outcome.fail(tag, self.cases, f"unreadable cases.csv ({e})")
                return {}
            for c in self.cases:
                reason = "missing from cases.csv" if c not in got else ref.check_scores(
                    got[c], self.want[c])
                if reason:
                    outcome.fail(tag, [c], reason)
            return self.want
        path = out / "case_000.nii"
        try:
            reason = ref.check_fused(path, self.box, self.labels, self.shape, self.spacing)
            if reason is None and self.workload == "fuse-staple":
                reason = self.check_iterations(out / "case_000_staple.json")
        except (OSError, KeyError, TypeError, ValueError) as e:
            reason = f"unreadable output ({e})"
        if reason:
            outcome.fail(tag, self.cases, reason)
            return {}
        return {"case_000": ref.scores(ref.read_nifti(path)[0], *self.gt["case_000"])}

    def check_iterations(self, diag_path: Path) -> str | None:
        """STAPLE must take as many EM iterations per region as the reference:
        an early stop can leave the fused mask unchanged on these inputs."""
        staple = json.loads(diag_path.read_text())["staple"]
        for region, want in self.iterations.items():
            got = staple[region]["iterations"]
            if got != want:
                return f"STAPLE ran {got} iterations on {region}, the reference {want}"
        return None


def quality(scores: dict) -> dict[str, float]:
    dsc = [v for s in scores.values() for v in s["dsc"].values()]
    hd = [v for s in scores.values() for v in s["hd95"].values()]
    return {
        "dsc_mean": statistics.fmean(dsc),
        "dsc_et": statistics.fmean(s["dsc"]["ET"] for s in scores.values()),
        "hd95_mean_mm": statistics.fmean(hd),
    }


def check_digests(outs: list[Path], key: str, cases: list[str], outcome: Outcome):
    first = digests(outs[0])
    for out in outs[1:]:
        if digests(out) != first:
            outcome.fail(out.name, cases, f"output bytes differ from {outs[0].name}")
    reason = check_stored(WORK_ROOT / "digests.json", key, first)
    if reason:
        outcome.fail(outs[0].name, cases, reason)


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, Outcome, dict]:
    """The --trace 0 run: end-to-end metrics with sample lists."""
    log = work / "cli_stderr.txt"
    setup = []
    for _ in range(SETUP_SAMPLES):
        sample = run_cli(["--help"], work, log)
        if sample["rc"] != 0:
            raise RuntimeError(f"bratsfuse.cli --help exited {sample['rc']}; see {log}")
        setup.append(sample["wall_s"])
    checker = Checker(workload, work)
    outcome = Outcome()
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    outs, scores = [], {}
    warm_memory(WARM_MB[workload])
    start = time.perf_counter()
    while (len(samples["wall_s"]) < MIN_SAMPLES[workload]
           or time.perf_counter() - start < seconds):
        out = work / f"out{len(samples['wall_s'])}"
        sample = run_cli(cli_args(workload, work, out, JOBS[workload]), work, log)
        for name in samples:
            samples[name].append(sample[name])
        scores = checker.check(out, sample["rc"], outcome) or scores
        if sample["rc"] == 0:
            outs.append(out)
        elif not outs:
            break  # the command fails outright: no point repeating it
    if outs:
        check_digests(outs, digest_key(workload, seed), checker.cases, outcome)
    samples["setup_s"] = setup
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    if scores:
        metrics.update(quality(scores))
    metrics["success_rate"] = 1.0 - outcome.failed / max(outcome.attempted, 1)
    return metrics, outcome, samples


def trace(workload: str, seed: int, work: Path) -> tuple[dict, Outcome, dict]:
    """The --trace 1 run: per-layer metrics from one traced in-process run,
    with one untraced in-process run to measure the tracing overhead."""
    checker = Checker(workload, work)
    outcome = Outcome()
    reports = {}
    for mode in ("plain", "traced"):
        out, report = work / f"out_{mode}", work / f"{mode}.json"
        warm_memory(WARM_MB[workload])
        run_helper("traced_run.py", [mode, str(report), *cli_args(workload, work, out, 1)],
                   work, work / "cli_stderr.txt")
        reports[mode] = json.loads(report.read_text())
        checker.check(out, reports[mode]["rc"], outcome)
    if all(r["rc"] == 0 for r in reports.values()):
        check_digests([work / "out_plain", work / "out_traced"], digest_key(workload, seed),
                      checker.cases, outcome)
    traced = reports["traced"]
    spans = [tracing.Span(**s) for s in traced["spans"]]
    metrics = tracing.layer_metrics(spans, traced["counts"], traced["wall_s"],
                                    reports["plain"]["wall_s"])
    return metrics, outcome, tracing.summarize_spans(spans)


def leader_check(workload: str, table: dict) -> str:
    ranked = sorted((n for n in table if n != "trace.count"),
                    key=lambda n: table[n]["self_s"], reverse=True)
    want = EXPECTED_LEADERS[workload]
    got = tuple(ranked[:len(want)])
    verdict = "ok" if set(got) == set(want) else "MISS"
    return f"leading self time: {', '.join(got)} (expected {', '.join(want)}): {verdict}"


def fmt(v: float) -> str:
    return f"{v:.6g}"


def print_e2e(metrics, samples, outcome):
    print(f"{'metric':<16}{'value':>14}  {'unit':<6}{'n':>4}{'min':>12}{'max':>12}")
    for name, (unit, _) in END_TO_END.items():
        if name not in metrics:
            continue
        vals = samples.get(name, [metrics[name]])
        print(f"{name:<16}{fmt(metrics[name]):>14}  {unit:<6}{len(vals):>4}"
              f"{fmt(min(vals)):>12}{fmt(max(vals)):>12}")
    rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{'error_rate':<16}{fmt(rate):>14}  {'1':<6}{outcome.attempted:>4}")


def print_layers(workload, metrics, table):
    print(f"{'span':<34}{'calls':>7}{'self_s':>11}{'total_s':>11}{'peak_mb':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<34}{row['calls']:>7}{row['self_s']:>11.4f}{row['total_s']:>11.4f}"
              f"{row['peak_mb']:>10.1f}")
    print()
    for name, (unit, _) in tracing.PER_LAYER.items():
        print(f"{name:<38}{fmt(metrics[name]):>14}  {unit}")
    print(leader_check(workload, table))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import inputs  # imports bratsfuse, so only once src/ is on the path

    work = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        desc = inputs.MAKERS[workload](work, seed)
        elapsed = time.perf_counter() - start
        print(f"== {workload} seed {seed}: inputs generated in {elapsed:.1f} s")
        print("   " + json.dumps(desc, sort_keys=True))
        if traced:
            metrics, outcome, table = trace(workload, seed, work)
            print_layers(workload, metrics, table)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            metrics, outcome, samples = measure(workload, seed, seconds, work)
            print_e2e(metrics, samples, outcome)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        for key, reason in outcome.failures.items():
            print(f"FAILED {workload} {key}: {reason}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": outcome.failed == 0 and set(metrics) == set(units),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bratsfuse" / "cli.py").is_file():
        print(f"error: {SRC / 'bratsfuse'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m
                        for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
