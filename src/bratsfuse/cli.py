"""Command-line interface.

Subcommands cover the path from model outputs to scores: ``synth`` (phantom
fixtures), ``fuse``, ``postprocess`` (``fuse`` of one label map alone, which
applies the ET size threshold), ``eval``, ``report`` and ``rank``. The
models' own inference (normalisation, sliding windows) runs before them,
outside this package. ``fuse`` reads its settings (output directory, ET
threshold, STAPLE's tolerance and iteration cap) from its config alone, and
``--out`` is the one it lets the command line override. Its STAPLE sidecar
gives each region's fit: every model's p and q, the prior, the iterations
and whether EM converged. EM always starts from near-perfect raters and the
foreground rate of the grid (see ``fusion``). Volumes are NIfTI-1 files;
machine outputs are JSON or CSV. Exit codes: 0 success, 1 configuration
error or a file that cannot be read or written (one ``Error:`` line), 2
command-line usage error (click's own status), 3 partial failure (some
cases errored, the rest were written).

Nothing imported here loads scipy, which would about double the start-up
time of every command. Before numpy loads, OpenBLAS is kept to one thread:
its pool would start a worker per extra CPU that spins at start-up, and the
only BLAS calls here, STAPLE's small rater-by-pattern products, are too
small to split over threads.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# Before the first import that loads numpy. A value the user set is kept,
# other BLAS builds ignore the variable, and forked case workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from .errors import BratsFuseError, error_text
from .fusion import MAX_RATERS
from .metrics import EMPTY_PENALTY_MM
from .nifti import _write_text, save_nifti, save_probmap
from .pipeline import (
    PipelineConfig,
    read_cases_csv,
    run_eval,
    run_fuse,
    run_postprocess,
    run_rank,
    write_summary_outputs,
)
from .postprocess import DEFAULT_ET_THRESHOLD
from .synth import PhantomSpec, corrupt_labels, make_phantom, noisy_probmap


class _Main(click.Group):
    """Ends a command that raises a BratsFuseError or an ``OSError`` (say, an
    output path in a missing directory) with one ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BratsFuseError, OSError) as e:
            raise click.ClickException(error_text(e)) from e


@click.group(cls=_Main)
def main():
    """Ensemble fusion and evaluation for BraTS-style segmentations."""


@main.command("fuse")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Pipeline config JSON.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel case workers: forked processes, each taking every N-th "
                   "case in case-id order.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory, in place of the config's output_dir.")
def fuse_cmd(config_path, jobs, out_dir):
    """Average folds, STAPLE-fuse models, post-process, write fused NIfTIs.

    The config names the cases and their models, and sets output_dir,
    et_threshold (a fused map with fewer ET voxels than this has them
    relabeled 1), staple.tol and staple.max_iters; --out overrides
    output_dir.

    STAPLE counts every voxel of the grid, including those every model calls
    background (code 0). So the prior, p and q in each <case>_staple.json
    scale with the grid, and with 5 or more models a cropped or padded grid
    can change the fused labels. Each <case>_staple.json records the two
    counts: grid_voxels and background_voxels.
    """
    cfg = PipelineConfig.from_json(config_path)
    if out_dir is not None:
        cfg = replace(cfg, output_dir=Path(out_dir))
    diags, errors = run_fuse(cfg, jobs=jobs)
    click.echo(f"fused {len(diags)} case(s), {len(errors)} error(s) into {cfg.output_dir}")
    for e in errors:
        click.echo(f"  {e['case_id']}: {e['error']} ({e['detail']})", err=True)
    if errors:
        sys.exit(3)


@main.command("eval")
@click.argument("pred_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("gt_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="eval_out",
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel case workers: forked processes, each taking every N-th "
                   "case in case-id order.")
@click.option("--hd95-penalty", default=EMPTY_PENALTY_MM, show_default=True,
              help="HD95 for an empty-vs-nonempty region pair (mm).")
def eval_cmd(pred_dir, gt_dir, out_dir, jobs, hd95_penalty):
    """Evaluate predictions against ground truth paired by filename stem."""
    cases, errors = run_eval(pred_dir, gt_dir, out_dir, jobs=jobs, penalty=hd95_penalty)
    click.echo(f"evaluated {len(cases)} case(s), {len(errors)} error(s); "
               f"outputs in {out_dir}")
    for e in errors:
        click.echo(f"  {e['case_id']}: {e['error']} ({e['detail']})", err=True)
    if errors:
        sys.exit(3)


@main.command("report")
@click.argument("cases_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="report_out",
              show_default=True)
def report_cmd(cases_csv, out_dir):
    """Summarize a per-case metrics CSV into the statistics table."""
    cases = read_cases_csv(cases_csv)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_outputs(cases, out)
    click.echo((out / "summary.txt").read_text(), nl=False)
    click.echo(f"({len(cases)} cases; outputs in {out})")


@main.command("rank")
@click.argument("summary_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="rank_out",
              show_default=True)
def rank_cmd(summary_csv, out_dir):
    """Rank models from a per-model summary CSV (columns model,DSC_*,HD95_*)."""
    click.echo(run_rank(summary_csv, out_dir), nl=False)


@main.command("synth")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--shape", type=click.Tuple([int, int, int]), default=(48, 48, 48), show_default=True,
              help="Grid size in voxels. The tumour radii scale with it per axis "
                   "(WT 16x14x15 voxels at 48^3).")
@click.option("--raters", type=click.IntRange(min=0), default=3, show_default=True,
              help="Number of corrupted rater label maps.")
@click.option("--rate", type=click.FloatRange(0.0, 1.0), default=0.1, show_default=True,
              help="Per-voxel corruption probability for the raters.")
@click.option("--probmaps/--no-probmaps", default=True, show_default=True,
              help="Also emit a soft model (two fold probability manifests).")
def synth_cmd(out_dir, seed, shape, raters, rate, probmaps):
    """Write a phantom's labels, noisy raters, fold maps and a fuse config."""
    if raters == 0 and not probmaps:
        raise click.UsageError("--raters 0 with --no-probmaps would write a config "
                               "with no model")
    if raters + probmaps > MAX_RATERS:
        soft = " and the soft model" if probmaps else ""
        raise click.UsageError(f"--raters {raters}{soft} would write a config of "
                               f"{raters + probmaps} models; fuse takes at most {MAX_RATERS}")
    try:
        gt, _ = make_phantom(PhantomSpec(shape=tuple(shape), seed=seed))
    except ValueError as e:
        raise click.ClickException(str(e)) from e
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_nifti(out / "gt.nii", gt)
    (out / "gt_dir").mkdir(exist_ok=True)
    save_nifti(out / "gt_dir" / "case_000.nii", gt)
    models = []
    for k in range(raters):
        rater = corrupt_labels(gt, rate, seed=seed * 1000 + k)
        name = f"rater{k}.nii"
        save_nifti(out / name, rater)
        models.append({"name": f"rater{k}", "labelmap": name})
    if probmaps:
        manifests = []
        for fold in range(2):
            pm = noisy_probmap(gt, temperature=0.05, seed=seed * 1000 + 500 + fold)
            manifest = save_probmap(pm, out / "probs", f"case_000_f{fold}")
            manifests.append(str(manifest.relative_to(out)))
        models.append({"name": "soft_model", "prob_manifests": manifests})
    config = {
        "cases": [{"id": "case_000", "models": models}],
        "output_dir": "fused",
        "et_threshold": DEFAULT_ET_THRESHOLD,
        "staple": {"tol": 1e-6, "max_iters": 100},
    }
    _write_text(out / "fuse_config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    click.echo(f"phantom fixture written to {out} (config: fuse_config.json)")


@main.command("postprocess")
@click.argument("input_nii", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_nii", type=click.Path())
@click.option("--et-threshold", type=click.IntRange(min=0), default=DEFAULT_ET_THRESHOLD,
              show_default=True)
def postprocess_cmd(input_nii, output_nii, et_threshold):
    """Apply the ET size-threshold relabeling to a label map."""
    diag = run_postprocess(input_nii, output_nii, et_threshold)
    click.echo(f"wrote {output_nii} (ET voxels {diag['et_voxels_before']} -> "
               f"{diag['et_voxels_after']})")


if __name__ == "__main__":
    main()
