"""Machine-learning substrate: linear SVM (LibLINEAR-style), RBM, DBN.

Each trainer runs one fixed recipe, its module's constants.  The settings
left are the SVM's ``C`` and an RBM's seed.
"""

from repro.ml.dbn import PAPER_DBN_CLASSES, PAPER_DBN_LAYERS, DeepBeliefNetwork
from repro.ml.kernels import affine_matrix, affine_rows, ensure_rows, square_norm_rows
from repro.ml.linear import LinearModel, require_trained, validate_training_set
from repro.ml.logistic import SoftmaxLayer, one_hot, sigmoid, softmax
from repro.ml.rbm import Rbm
from repro.ml.scaler import MinMaxScaler, StandardScaler
from repro.ml.svm import LinearSvm, SvmConfig

__all__ = [
    "DeepBeliefNetwork",
    "LinearModel",
    "LinearSvm",
    "MinMaxScaler",
    "PAPER_DBN_CLASSES",
    "PAPER_DBN_LAYERS",
    "Rbm",
    "SoftmaxLayer",
    "StandardScaler",
    "SvmConfig",
    "affine_matrix",
    "affine_rows",
    "ensure_rows",
    "square_norm_rows",
    "one_hot",
    "require_trained",
    "sigmoid",
    "softmax",
    "validate_training_set",
]
