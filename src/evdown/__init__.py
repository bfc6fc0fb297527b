"""evdown: online downsampling of event-camera streams.

Keeps a target fraction alpha of an event stream in a single causal pass,
either uniformly, on a deterministic duty cycle, or adaptively by per-pixel
event density so that active contours survive subsampling better than
background noise.  Includes a synthetic-scene generator with ground-truth
labels, evaluation metrics, and stable stream serialization.
"""

from .density import (DensityMap, OccupancyMap, PriorMap, ScoreMap,
                      SigmoidParams, SparseScores, accumulate_density,
                      gaussian_prior, minmax_normalize, occupancy_values,
                      poisson_occupancy, score_map, sigmoid, sparse_scores)
from .events import (Event, EventLabel, EventStream, Polarity, SensorGeometry,
                     ValidationReport, Violation, stream_duration,
                     validate_stream)
from .evio import (EventFileError, detect_format, read_events, read_log,
                   read_prior, write_events, write_log, write_prior,
                   write_stats)
from .metrics import (RetentionReport, SelectivityReport, density_divergence,
                      match_events, retention_ratio, selectivity)
from .pipeline import (METHODS, DecisionLog, Downsampler, RunStats, run,
                       timing_probe)
from .samplers import DecisionCode, SamplerConfig, acceptance_window_us
from .synth import (EdgeSpec, LabeledEvent, SceneSpec, density_snapshot,
                    edge_shift, generate, labeled_event, rasterize_segment,
                    reference_scene)

__version__ = "0.1.0"
