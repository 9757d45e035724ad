"""Ensemble fusion and evaluation toolkit for BraTS-style segmentations.

Core pieces: volumetric types with NIfTI-1 I/O, the nested ET/TC/WT region
semantics, ensemble fusion (softmax averaging of fold maps, STAPLE EM across
models), ET-size post-processing, Dice/HD95 metrics with an exact
anisotropic distance transform, summary/ranking reports, and synthetic
phantoms for testing without scanner data. The models' own inference,
with its intensity normalisation and sliding windows, runs outside this
package; it starts from their label maps and fold probability maps.

The modules are the API: import names from them (``bratsfuse.fusion``,
``bratsfuse.nifti``, ``bratsfuse.pipeline``, ...). Importing the package
itself loads nothing, not even numpy, so ``bratsfuse.cli`` can limit the
BLAS thread pool before numpy starts it.
"""

__version__ = "0.1.0"
