"""Command-line interface.

Subcommands cover the path from model outputs to scores: ``synth`` (phantom
fixtures), ``fuse``, ``postprocess``, ``eval``, ``report`` and ``rank``,
plus two helpers around the models' own inference: ``preprocess``
(z-normalization and nonzero crop) and ``tiling-plan`` (the sliding-window
layout as JSON). Volumes are NIfTI-1 files; machine outputs are JSON or CSV.
Exit codes: 0 success, 1 configuration error, 2 partial failure (some cases
errored).

Nothing imported here loads scipy, which would about double the start-up
time of every command.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from .errors import BratsFuseError, ConfigError
from .metrics import EMPTY_PENALTY_MM
from .nifti import load_labelmap, load_volume, save_nifti, save_probmap
from .pipeline import (
    PipelineConfig,
    read_cases_csv,
    run_eval,
    run_fuse,
    run_rank,
    write_summary_outputs,
)
from .postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from .preprocess import znorm
from .report import summarize
from .synth import PhantomSpec, corrupt_labels, make_phantom, noisy_probmap
from .tiling import plan_tiling
from .volume import crop, nonzero_bbox

SHAPE = click.Tuple([int, int, int])


@click.group()
def main():
    """Ensemble fusion and evaluation for BraTS-style segmentations."""


@main.command("fuse")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Pipeline config JSON.")
@click.option("--jobs", default=1, show_default=True, help="Parallel case workers.")
@click.option("--et-threshold", type=int, default=None,
              help="Override the config's ET relabeling threshold.")
@click.option("--staple-tol", type=float, default=None,
              help="Override the STAPLE convergence tolerance.")
@click.option("--staple-max-iters", type=int, default=None,
              help="Override the STAPLE iteration cap.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Override the config's output directory.")
def fuse_cmd(config_path, jobs, et_threshold, staple_tol, staple_max_iters, out_dir):
    """Average folds, STAPLE-fuse models, post-process, write fused NIfTIs."""
    try:
        cfg = PipelineConfig.from_json(config_path)
        overrides = {}
        if et_threshold is not None:
            overrides["et_threshold"] = et_threshold
        if staple_tol is not None:
            overrides["staple_tol"] = staple_tol
        if staple_max_iters is not None:
            overrides["staple_max_iters"] = staple_max_iters
        if out_dir is not None:
            overrides["output_dir"] = Path(out_dir)
        if overrides:
            cfg = replace(cfg, **overrides)
        diags, errors = run_fuse(cfg, jobs=jobs)
    except ConfigError as e:
        raise click.ClickException(str(e)) from e
    click.echo(f"fused {len(diags)} case(s), {len(errors)} error(s) into {cfg.output_dir}")
    for e in errors:
        click.echo(f"  {e['case_id']}: {e['error']} ({e['detail']})", err=True)
    if errors:
        sys.exit(2)


@main.command("eval")
@click.argument("pred_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("gt_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="eval_out",
              show_default=True)
@click.option("--jobs", default=1, show_default=True)
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
        sys.exit(2)


@main.command("report")
@click.argument("cases_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="report_out",
              show_default=True)
def report_cmd(cases_csv, out_dir):
    """Summarize a per-case metrics CSV into the statistics table."""
    try:
        cases = read_cases_csv(cases_csv)
    except ConfigError as e:
        raise click.ClickException(str(e)) from e
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_outputs(cases, out)
    click.echo((out / "summary.txt").read_text(), nl=False)
    click.echo(f"({summarize(cases).n_cases} cases; outputs in {out})")


@main.command("rank")
@click.argument("summary_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default="rank_out",
              show_default=True)
def rank_cmd(summary_csv, out_dir):
    """Rank models from a per-model summary CSV (columns model,DSC_*,HD95_*)."""
    try:
        table = run_rank(summary_csv, out_dir)
    except ConfigError as e:
        raise click.ClickException(str(e)) from e
    click.echo(table, nl=False)


@main.command("synth")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--shape", type=SHAPE, default=(48, 48, 48), show_default=True,
              help="Grid size in voxels. The tumour radii scale with it per axis "
                   "(WT 16x14x15 voxels at 48^3).")
@click.option("--raters", default=3, show_default=True,
              help="Number of corrupted rater label maps.")
@click.option("--rate", type=click.FloatRange(0.0, 1.0), default=0.1, show_default=True,
              help="Per-voxel corruption probability for the raters.")
@click.option("--probmaps/--no-probmaps", default=True, show_default=True,
              help="Also emit a soft model (two fold probability manifests).")
def synth_cmd(out_dir, seed, shape, raters, rate, probmaps):
    """Generate a phantom, noisy raters, and a ready-to-run fuse config."""
    try:
        gt, intensity = make_phantom(PhantomSpec(shape=tuple(shape), seed=seed))
    except (BratsFuseError, ValueError) as e:
        raise click.ClickException(str(e)) from e
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_nifti(out / "gt.nii", gt)
    save_nifti(out / "intensity.nii", intensity)
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
    (out / "fuse_config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    click.echo(f"phantom fixture written to {out} (config: fuse_config.json)")


@main.command("preprocess")
@click.argument("input_nii", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_nii", type=click.Path())
@click.option("--znorm/--no-znorm", "do_znorm", default=True, show_default=True)
@click.option("--crop-nonzero", is_flag=True, default=False,
              help="Crop to the nonzero bounding box (writes a bbox JSON).")
def preprocess_cmd(input_nii, output_nii, do_znorm, crop_nonzero):
    """Normalize (and optionally crop) an intensity volume."""
    try:
        v = load_volume(input_nii)
        if crop_nonzero:
            box = nonzero_bbox(v)
            v = crop(v, box)
            bbox_path = Path(output_nii).with_suffix(".bbox.json")
            bbox_path.write_text(json.dumps(
                {"lo": list(box.lo), "hi": list(box.hi)}, sort_keys=True) + "\n")
        if do_znorm:
            v = znorm(v)
        save_nifti(output_nii, v)
    except BratsFuseError as e:
        raise click.ClickException(str(e)) from e
    click.echo(f"wrote {output_nii}")


@main.command("postprocess")
@click.argument("input_nii", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_nii", type=click.Path())
@click.option("--et-threshold", default=DEFAULT_ET_THRESHOLD, show_default=True)
def postprocess_cmd(input_nii, output_nii, et_threshold):
    """Apply the ET size-threshold relabeling to a label map."""
    try:
        m = load_labelmap(input_nii)
        out = et_threshold_relabel(m, et_threshold)
        save_nifti(output_nii, out)
    except BratsFuseError as e:
        raise click.ClickException(str(e)) from e
    before = int((m.data == 4).sum())
    after = int((out.data == 4).sum())
    click.echo(f"wrote {output_nii} (ET voxels {before} -> {after})")


@main.command("tiling-plan")
@click.option("--shape", type=SHAPE, required=True, help="Volume shape nx ny nz.")
@click.option("--patch", type=SHAPE, default=(128, 128, 128), show_default=True)
@click.option("--stride", type=SHAPE, default=(64, 64, 64), show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the plan JSON here instead of stdout.")
def tiling_plan_cmd(shape, patch, stride, out_path):
    """Dry-run the sliding-window plan for a volume shape."""
    try:
        plan = plan_tiling(shape, patch, stride)
    except ValueError as e:
        raise click.ClickException(str(e)) from e
    text = plan.to_json()
    if out_path:
        Path(out_path).write_text(text + "\n")
        click.echo(f"{len(plan.windows)} window(s); plan written to {out_path}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
