"""Graph embedding model, siamese HGED-regression training, and baselines."""
from .model import (
    DEFAULT_RELATIONS, GROUPS, INPUT_DIM, GraphUnion, RgcnConfig,
    backward, embed, featurize_baseline, forward, graph_data, graph_union,
    init_params, pair_loss, pair_loss_grad, zero_grads,
)
from .train import PretrainConfig, TrainLogEntry, TrainPair, pretrain
from .checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint

__all__ = [
    "DEFAULT_RELATIONS", "GROUPS", "INPUT_DIM", "GraphUnion",
    "RgcnConfig", "backward", "embed", "featurize_baseline", "forward",
    "graph_data", "graph_union", "init_params", "pair_loss", "pair_loss_grad",
    "zero_grads",
    "PretrainConfig", "TrainLogEntry", "TrainPair", "pretrain",
    "FORMAT_VERSION", "load_checkpoint", "save_checkpoint",
]
