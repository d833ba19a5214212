"""Post-training int8 quantization with auto-tuned configuration search.

The pipeline: build or load a model graph, calibrate activation histograms
on a small image cache, quantize under one of 96 candidate configurations
(cache size x scheme x clipping x granularity x mixed precision), and run
either simulated-quantized or integer-only inference.  A gradient-boosted
surrogate searches the configuration space; transfer from earlier campaigns
warm-starts new models.
"""

from .calibration import CalibrationCache, TensorHistogram, build_cache, calibrate, load_cache, save_cache
from .clipping import clip_range_kl, clip_range_max, clipped_range
from .dataset import Dataset, class_templates, load_dataset, make_dataset, save_dataset
from .fixtures import FIXTURE_RECIPES, generate_fixture, recipe_feature_counts
from .fp32 import (AccuracyResult, avgpool, conv2d, depthwise_conv2d,
                   evaluate_top1, maxpool, run_fp32, softmax, top1_from_scores)
from .gbt import GBTModel, feature_importance, predict, train
from .intexec import (IntegerOnlyError, OpTrace, check_integer_only,
                      evaluate_quantized, run_integer_only, run_quantized)
from .ir import (Graph, GraphError, ModelFeatures, Node, extract_features,
                 load_model, propagate_shapes, save_model, validate)
from .quantize import (QuantConfig, QuantizedGraph, load_quantized, model_size,
                       quantize_model, quantize_weights, save_quantized)
from .schemes import QuantParams, Scheme, dequantize_array, params_for_range, quantize_array
from .tuner import (SearchResult, TargetProfile, TuningRecord, enumerate_space, load_db,
                    make_accuracy_evaluator, record_db, run_strategy)

__version__ = "0.1.0"

__all__ = [
    "AccuracyResult", "CalibrationCache", "Dataset", "FIXTURE_RECIPES",
    "GBTModel", "Graph", "GraphError", "IntegerOnlyError",
    "ModelFeatures", "Node", "OpTrace", "QuantConfig", "QuantParams",
    "QuantizedGraph", "Scheme", "SearchResult", "TargetProfile",
    "TensorHistogram", "TuningRecord", "avgpool", "build_cache", "calibrate",
    "check_integer_only", "class_templates", "clip_range_kl", "clip_range_max",
    "clipped_range", "conv2d", "depthwise_conv2d", "dequantize_array",
    "enumerate_space", "evaluate_quantized", "evaluate_top1",
    "extract_features", "feature_importance", "generate_fixture",
    "load_cache", "load_db", "load_dataset", "load_model", "load_quantized",
    "make_accuracy_evaluator", "make_dataset",
    "maxpool", "model_size", "params_for_range",
    "predict", "propagate_shapes", "quantize_array", "quantize_model",
    "quantize_weights", "recipe_feature_counts", "record_db",
    "run_fp32", "run_integer_only", "run_quantized", "run_strategy",
    "save_cache", "save_dataset", "save_model", "save_quantized",
    "softmax", "top1_from_scores", "train", "validate",
]
