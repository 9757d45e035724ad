"""Tests of the benchmark's own code: input generation, the reference
metrics and fusion it checks outputs against, and the span arithmetic.

Run from the repository root: python3 -m pytest -q benchmarks
"""

import tracemalloc

import numpy as np
import pytest

import inputs
import reference as ref
import tracing
from tests.oracles import dice_counts, hd95_all_pairs, boundary_reference, staple_em_reference

SMALL_GRID = (64, 64, 40)
SMALL_SPACING = (2.0, 2.0, 2.5)


def small_case(seed):
    gt = inputs.phantom(SMALL_GRID, SMALL_SPACING, seed)
    box = inputs.tumour_box(gt)
    return gt, box, inputs.region_sdfs(gt, box)


# -- generator ------------------------------------------------------------------

def test_raters_and_folds_are_deterministic_per_seed():
    gt, box, sdfs = small_case(3)
    gt2, box2, sdfs2 = small_case(3)
    assert np.array_equal(gt.data, gt2.data) and box == box2
    for k in range(3):
        assert np.array_equal(inputs.rater(gt, sdfs, box, k, 3).data,
                              inputs.rater(gt2, sdfs2, box2, k, 3).data)
    assert np.array_equal(inputs.soft_fold(gt, sdfs, box, 1, 3).data,
                          inputs.soft_fold(gt2, sdfs2, box2, 1, 3).data)
    gt4, box4, sdfs4 = small_case(4)
    assert not np.array_equal(inputs.rater(gt4, sdfs4, box4, 0, 4).data,
                              inputs.rater(gt, sdfs, box, 0, 3).data)


def test_raters_err_at_the_boundary_only():
    gt, box, sdfs = small_case(0)
    for k in range(3):
        m = inputs.rater(gt, sdfs, box, k, 0).data
        outside = np.ones(gt.shape, dtype=bool)
        outside[box] = False
        assert not m[outside].any()
        for r in inputs.REGIONS:
            d = ref.dice(ref.region(m, r), ref.region(gt.data, r))
            assert 0.5 < d < 1.0


def test_eval_batch_files_are_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    desc = inputs.make_eval_batch(a, 7)
    inputs.make_eval_batch(b, 7)
    inputs.make_eval_batch(c, 8)
    files = sorted(p.relative_to(a) for p in a.rglob("*.nii"))
    assert len(files) == 2 * inputs.EVAL_CASES
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)
    assert desc["pred_et_voxels"][inputs.SMALL_ET_CASE] < inputs.ET_THRESHOLD
    gt_no_et = ref.read_nifti(a / "gt" / f"case_{inputs.NO_ET_CASE:03d}.nii")[0]
    assert not (gt_no_et == 4).any()


def test_describe_counts_patterns():
    a = np.array([0, 2, 1, 4, 4], dtype=np.uint8)
    b = np.array([0, 2, 2, 4, 0], dtype=np.uint8)
    d = inputs.describe([a, b], a)
    assert d["voxels"] == 5 and d["raters"] == 2
    assert d["agree_frac"] == pytest.approx(0.6)
    assert d["tumour_frac"] == pytest.approx(0.8)
    # ET columns: (0,0) (0,0) (0,0) (1,1) (1,0) -> three distinct patterns.
    assert d["patterns"] == {"ET": 3, "TC": 3, "WT": 3}
    d = inputs.describe([a, b], a, outside=5)
    assert d["voxels"] == 10
    assert d["agree_frac"] == pytest.approx(0.8)
    assert d["tumour_frac"] == pytest.approx(0.4)
    assert d["patterns"] == {"ET": 3, "TC": 3, "WT": 3}


# -- reference metrics against the shared oracles ------------------------------

def random_blob(rng, shape):
    centre = rng.uniform(2, np.array(shape) - 2)
    radii = rng.uniform(1.5, 3.5, size=3)
    grid = np.indices(shape).transpose(1, 2, 3, 0)
    return (((grid - centre) / radii) ** 2).sum(axis=-1) <= 1.0 + rng.normal(0, 0.2, shape)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (2.0, 1.5, 3.0), (0.7, 1.0, 2.5)])
@pytest.mark.parametrize("seed", range(4))
def test_reference_scores_match_oracles(spacing, seed):
    rng = np.random.default_rng(seed)
    shape = (11, 9, 8)
    a, b = random_blob(rng, shape), random_blob(rng, shape)
    assert np.array_equal(ref.boundary(a), boundary_reference(a))
    assert ref.dice(a, b) == dice_counts(a, b)
    assert ref.hd95(a, b, spacing) == pytest.approx(
        hd95_all_pairs(a, b, spacing, ref.PENALTY_MM), abs=1e-9)


def test_reference_masks_touching_the_grid_edge():
    a = np.zeros((6, 5, 4), dtype=bool)
    b = np.zeros_like(a)
    a[:3, :, :2] = True
    b[2:, 1:4, 1:] = True
    spacing = (1.0, 2.0, 0.5)
    assert np.array_equal(ref.boundary(a), boundary_reference(a))
    assert ref.hd95(a, b, spacing) == pytest.approx(
        hd95_all_pairs(a, b, spacing, ref.PENALTY_MM), abs=1e-9)


def test_reference_empty_masks():
    empty = np.zeros((5, 5, 5), dtype=bool)
    full = empty.copy()
    full[1:3, 1:4, 2] = True
    for a, b in ((empty, empty), (empty, full), (full, empty)):
        assert ref.dice(a, b) == dice_counts(a, b)
        assert ref.hd95(a, b, (2.0, 1.0, 1.5)) == hd95_all_pairs(a, b, (2.0, 1.0, 1.5),
                                                                 ref.PENALTY_MM)


def test_reference_scores_use_the_penalty_for_a_missing_region():
    gt = np.zeros((8, 8, 8), dtype=np.uint8)
    gt[2:6, 2:6, 2:6] = 1
    pred = gt.copy()
    pred[3:5, 3:5, 3:5] = 4
    s = ref.scores(pred, gt, (1.0, 1.0, 1.0))
    assert s["dsc"]["ET"] == 0.0 and s["hd95"]["ET"] == ref.PENALTY_MM
    assert s["dsc"]["TC"] == 1.0 and s["hd95"]["TC"] == 0.0


# -- reference fusion ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_pattern_staple_matches_the_em_oracle(seed):
    rng = np.random.default_rng(seed)
    truth = rng.random(300) < 0.3
    bits = np.stack([truth ^ (rng.random(300) < e) for e in (0.05, 0.1, 0.2)])
    extra = 50
    full = np.concatenate([bits, np.zeros((3, extra), dtype=bool)], axis=1)
    prior = full.mean()
    w, _, _, iters, conv = staple_em_reference(full, [0.99999] * 3, [0.99999] * 3,
                                               prior, 1e-6, 100)
    mask, got_iters, got_conv = ref.staple_patterns(bits, extra_background=extra)
    assert np.array_equal(mask, (w >= 0.5)[:300])
    assert (got_iters, got_conv) == (iters, conv)


def test_reference_staple_matches_the_package_on_small_raters():
    from bratsfuse.fusion import staple_multilabel
    from bratsfuse.postprocess import et_threshold_relabel

    gt, box, sdfs = small_case(1)
    raters = [inputs.rater(gt, sdfs, box, k, 1) for k in range(3)]
    rbox, labels, _ = ref.staple_fuse([m.data for m in raters], inputs.ET_THRESHOLD)
    want = et_threshold_relabel(staple_multilabel(raters), inputs.ET_THRESHOLD).data
    assert np.array_equal(want[rbox], labels)
    assert np.count_nonzero(want) == np.count_nonzero(labels)


def test_reference_soft_fusion_matches_the_package(tmp_path):
    from bratsfuse.fusion import argmax_labels, average_probs
    from bratsfuse.nifti import load_probmap, save_probmap
    from bratsfuse.postprocess import et_threshold_relabel

    gt, box, sdfs = small_case(2)
    manifests = [save_probmap(inputs.soft_fold(gt, sdfs, box, f, 2), tmp_path, f"f{f}")
                 for f in range(3)]
    want = et_threshold_relabel(
        argmax_labels(average_probs([load_probmap(m) for m in manifests])),
        inputs.ET_THRESHOLD).data
    got = ref.soft_fuse(manifests, box, inputs.ET_THRESHOLD)
    assert np.array_equal(want[box], got)
    outside = want.copy()
    outside[box] = 0
    assert not outside.any()


# -- span arithmetic -------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("a.leaf", 2.0, 3.0, parent=1),
        tracing.Span("b", 5.0, 9.0, parent=0),
        tracing.Span("b.x", 5.0, 6.0, parent=3),
        tracing.Span("b.y", 5.5, 7.0, parent=3),  # overlaps b.x: the union counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    table = tracing.summarize_spans(spans + [tracing.Span("a", 11.0, 12.5)])
    assert table["a"]["calls"] == 2
    assert table["a"]["self_s"] == pytest.approx(3.5)
    assert table["a"]["total_s"] == pytest.approx(4.5)
    assert tracing.covered_time(spans + [tracing.Span("late", 9.5, 12.0)]) == pytest.approx(12.0)


def test_tracer_records_parents_counts_and_peaks():
    tracer = tracing.Tracer()

    def leaf(n):
        return np.ones(n)

    def outer(n):
        return traced_leaf(n).sum() + traced_leaf(n // 2).sum()

    def count(counts, args, result):
        counts["leaf.voxels"] += args[0]

    traced_leaf = tracer.wrap(leaf, "leaf", count)
    traced_outer = tracer.wrap(outer, "outer")
    tracemalloc.start()
    try:
        assert traced_outer(1_000_000) == 1_500_000
    finally:
        tracemalloc.stop()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "leaf", tracing.COUNT_SPAN, "leaf", tracing.COUNT_SPAN]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 0, 0]
    assert tracer.counts["leaf.voxels"] == 1_500_000
    leaf_peak = tracer.spans[1].peak_bytes
    assert 8_000_000 <= leaf_peak < 8_100_000
    assert tracer.spans[0].peak_bytes >= leaf_peak


def test_patched_installs_and_restores_every_target():
    import traced_run

    bf = traced_run.import_bratsfuse()
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in tracing.targets(bf)]
    with tracing.patched(tracing.Tracer(), bf):
        for m, a, fn in originals:
            assert getattr(m, a).__wrapped__ is fn
    for m, a, fn in originals:
        assert getattr(m, a) is fn


def test_stored_digests_are_compared_with_later_runs(tmp_path):
    import run

    path = tmp_path / "digests.json"
    assert run.check_stored(path, "w/1/v", {"a.nii": "x"}) is None
    assert run.check_stored(path, "w/1/v", {"a.nii": "x"}) is None
    assert run.check_stored(path, "w/1/v", {"a.nii": "y"}) is not None
    assert run.check_stored(path, "w/2/v", {"a.nii": "y"}) is None
    assert run.check_stored(path, "w/1/v", {"a.nii": "x"}) is None
