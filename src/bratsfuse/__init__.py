"""Ensemble fusion and evaluation toolkit for BraTS-style segmentations.

Core pieces: volumetric types with NIfTI-1 I/O, the nested ET/TC/WT region
semantics, seeded preprocessing/augmentation transforms, sliding-window
tiling, ensemble fusion (softmax averaging, majority vote, STAPLE EM),
ET-size post-processing, Dice/HD95 metrics with an exact anisotropic
distance transform, summary/ranking reports, and synthetic phantoms for
testing without scanner data.
"""

from .volume import (
    BBox,
    LabelMap,
    ProbMap,
    Volume,
    crop,
    embed,
    nonzero_bbox,
)
from .regions import Region, RegionMask, recompose_labels, region_mask
from .preprocess import (
    AugmentDraw,
    AugmentSpec,
    flip3d,
    gamma_transform,
    rotate3d,
    rotate3d_nearest,
    sample_augmentation,
    znorm,
)
from .tiling import TilingPlan, extract, plan_tiling, stitch
from .fusion import (
    StapleParams,
    StapleFit,
    StapleResult,
    argmax_labels,
    average_probs,
    majority_vote,
    staple_binary,
    staple_multilabel,
)
from .postprocess import ComponentLabeling, connected_components, et_threshold_relabel
from .metrics import (
    EMPTY_PENALTY_MM,
    CaseMetrics,
    DistanceField,
    boundary,
    dice,
    edt,
    evaluate_case,
    hd95,
)
from .report import (
    ModelRanking,
    ModelSummary,
    SummaryStats,
    model_summary,
    rank_models,
    summarize,
)
from .synth import PhantomSpec, corrupt_labels, make_phantom, noisy_probmap
from .nifti import (
    load_labelmap,
    load_probmap,
    load_volume,
    read_labelmap,
    read_nifti,
    save_nifti,
    save_probmap,
    write_nifti,
)

__version__ = "0.1.0"
