"""Siamese pretraining: (1 - cos)/2 of a pair's embeddings regresses its
normalized edit-distance label."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs import HetGraph
from ..optim import Adam, DivergenceError
from .model import (
    GraphData, RgcnConfig, graph_data, init_params, pair_loss, pair_loss_grad,
)


@dataclass
class TrainPair:
    i: int
    j: int
    label: float          # normalized HGED in [0, 1]
    split: str = "train"  # train / val / test, assigned by base design


@dataclass
class PretrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0


@dataclass
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_loss: float


def pretrain(graphs: list[HetGraph] | list[GraphData],
             pairs: list[TrainPair],
             model_config: RgcnConfig | None = None,
             train_config: PretrainConfig | None = None,
             log_fn=None):
    """Mini-batch Adam on the cosine-distance regression objective.

    Returns (best-validation parameters, list of TrainLogEntry)."""
    model_config = model_config or RgcnConfig()
    train_config = train_config or PretrainConfig()
    rng = np.random.default_rng(train_config.seed)

    gds = [g if isinstance(g, GraphData) else graph_data(g, model_config)
           for g in graphs]
    train_pairs = [(p.i, p.j, p.label) for p in pairs if p.split == "train"]
    val_pairs = [(p.i, p.j, p.label) for p in pairs if p.split == "val"]
    if not train_pairs:
        raise ValueError("no training pairs")
    if not val_pairs:
        val_pairs = train_pairs

    params = init_params(model_config, train_config.seed)
    opt = Adam(params, train_config.lr)
    best_val = float("inf")
    best_params = {k: v.copy() for k, v in params.items()}
    log: list[TrainLogEntry] = []
    stale = 0

    for epoch in range(train_config.max_epochs):
        order = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [train_pairs[k] for k in order[start:start + train_config.batch_size]]
            loss, grads = pair_loss_grad(params, model_config, gds, batch)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            opt.step(params, grads)
            epoch_loss += loss
            batches += 1
        train_loss = epoch_loss / max(1, batches)
        val_loss = pair_loss(params, model_config, gds, val_pairs)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        log.append(TrainLogEntry(epoch, train_loss, val_loss))
        if log_fn is not None:
            log_fn(log[-1])
        if val_loss < best_val - 1e-9:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale > train_config.patience:
                break
    return best_params, log
