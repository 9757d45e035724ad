"""Ensemble fusion and evaluation toolkit for BraTS-style segmentations.

Core pieces: volumetric types with NIfTI-1 I/O, the nested ET/TC/WT region
semantics, ensemble fusion (softmax averaging of fold maps, STAPLE EM across
models), ET-size post-processing, Dice/HD95 metrics with an exact
anisotropic distance transform, summary/ranking reports, and synthetic
phantoms for testing without scanner data. The models' own inference,
with its intensity normalisation and sliding windows, runs outside this
package; it starts from their label maps and fold probability maps.
"""

from .volume import (
    BBox,
    LabelMap,
    ProbMap,
    Volume,
    crop,
    nonzero_bbox,
)
from .regions import Region, RegionMask, recompose_labels, region_mask
from .fusion import (
    StapleParams,
    StapleFit,
    StapleResult,
    argmax_labels,
    average_probs,
    staple_binary,
    staple_multilabel,
)
from .postprocess import et_threshold_relabel
from .metrics import (
    EMPTY_PENALTY_MM,
    CaseMetrics,
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
    save_nifti,
    save_probmap,
)

__version__ = "0.1.0"
