"""evdown: online downsampling of event-camera streams.

Keeps a target fraction alpha of an event stream in a single causal pass,
either uniformly, on a deterministic duty cycle, or adaptively by per-pixel
event density so that active contours survive subsampling better than
background noise.  Includes a synthetic-scene generator with ground-truth
labels, evaluation metrics, and stable stream serialization.
"""

from .density import (PriorMap, SigmoidParams, SparseScores, gaussian_prior,
                      occupancy_values, sigmoid, sparse_scores)
from .events import EventLabel, EventStream, SensorGeometry
from .evio import (EventFileError, detect_format, read_events, read_log,
                   read_prior, write_events, write_log, write_prior,
                   write_stats)
from .metrics import (RetentionReport, SelectivityReport, density_divergence,
                      match_events, retention_ratio, selectivity)
from .pipeline import METHODS, DecisionLog, Downsampler, RunStats, run
from .samplers import DecisionCode, SamplerConfig, acceptance_window_us
from .synth import (EdgeSpec, SceneSpec, edge_shift, generate,
                    rasterize_segment, reference_scene)

__version__ = "0.1.0"
