"""Lightweight CNN training/inference engine and CPU latency benchmark harness.

Submodules:
    tensor   -- precision mode, counter-based RNG
    layers   -- forward/backward layer implementations and the Network container
    augment  -- seedable image augmentations (flips, rotation, cutout, mixup, ...)
    train    -- losses, SGD, stochastic weight averaging, training loop
    zoo      -- the six custom architectures, parameter counting, model files
    data     -- dataset container format, PGM import, synthetic data, splits
    bench    -- single-thread latency measurement and report emission
    cli      -- command-line entry point (``lightcnn``)
"""

__version__ = "0.1.0"

# the BLAS/OpenMP thread-count variables: the CLI pins each to 1 before numpy
# loads, and a bench report states their values
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

__all__ = [
    "tensor",
    "layers",
    "augment",
    "train",
    "zoo",
    "data",
    "bench",
    "cli",
]
