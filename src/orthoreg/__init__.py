"""Graph-regularized MLPs with an orthogonality regularizer on the
embedding cross-correlation, plus a numerical lab for studying how
smoothing regularizers collapse the embedding spectrum."""

from . import collapse, errors, experiments, graphio, ingest, net, reg, synth, tensor
from .collapse import (
    CollapseVerdict,
    DynamicsRun,
    build_p,
    closed_form_trajectory,
    feature_space_trajectory,
    free_embedding_optimize,
    gd_linear_trajectory,
    verify_ratio_monotonicity,
    verify_spectrum_identity,
    whiten,
)
from .experiments import RunReport, TrainConfig, TrainHistory, evaluate, train
from .graphio import (
    Dataset,
    NormalizedOperator,
    SparseGraph,
    homophily_ratio,
    load_dataset,
    load_edge_list,
    mask_edges,
    normalize,
    select_isolated,
)
from .net import MlpParams, adam_step, backward, cross_entropy, forward, init_mlp
from .reg import (
    RegularizerSpec,
    corr_identity_reg,
    cross_correlation,
    laplacian_reg,
    neighborhood_summary,
    orthoreg_loss,
    p_reg,
)
from .tensor import (
    EigenReport,
    correlation,
    covariance,
    eigen_report,
    nesum,
    singular_values,
    spmm,
    sym_eigvals,
)

__version__ = "0.1.0"
