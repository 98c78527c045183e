"""zobench: zeroth-order optimization with seed-replay checkpoints.

A numpy library implementing gradient-free training via paired-forward
randomized gradient estimation (q queries per step), read-only
perturbation probes with seed regeneration, full-Gaussian and low-rank
perturbation samplers, binary seed-log checkpoints with replay/revert,
an episodic test-time-adaptation loop, first-order reference optimizers,
and an experiment harness with a CLI.
"""

from .fo import FOConfig, fo_step, fo_train
from .models import (Batch, BatchSampler, DataGenConfig, Model, StreamSample,
                     accuracy, entropy_objective, gen_data,
                     gen_shifted_stream, logistic_regression, make_model,
                     mlp_classifier, quadratic_bowl, sample_scores,
                     seq_classifier)
from .params import ParamSet, ParamSetFormatError, SchemaMismatchError, axpy
from .samplers import (FULL, SamplerKind, alloc_tracker, sample_for_tensor,
                       sample_lowrank)
from .seedlog import (LogFormatError, SeedLog, SeedLogHeader, SeedLogWriter,
                      inspect, read_log, replay, revert)
from .streams import GaussianStream, gaussian_fill
from .tta import AdaptMask, TTAEpisodeConfig, adapt_sample, run_stream
from .zo import (CountingModel, NumericError, ZOConfig, derive_seed,
                 rge_proj_grad, train, zo_step)

__version__ = "0.1.0"
