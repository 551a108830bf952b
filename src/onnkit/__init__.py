"""onnkit: operational neural networks on a tape-based autodiff engine.

Networks generalize convolution: each neuron owns an operator set of a
nodal (elementwise), pool (patch reduction) and activation function, all
applied over shared patch matrices extracted once per tier. Everything is
float64 and deterministic end to end.
"""

from .autograd import (
    CustomBackward,
    GradcheckReport,
    Parameter,
    Tape,
    Variable,
    apply_custom,
    backward,
    gradcheck,
)
from .errors import OnnkitError
from .network import (
    NetworkConfig,
    OpBlock,
    OpNetwork,
    OpTier,
    check_operator_set_gradients,
    network_forward,
)
from .oplib import (
    OperatorConstants,
    OperatorSet,
    OperatorSetLibrary,
    add_custom_operator,
    register_builtin_library,
)
from .optim import Adam, SGD, make_optimizer
from .patchops import UnfoldPlan, get_plan, resample, unfold
from .tensor import Tensor
from .trainer import (
    MetricSpec,
    Trainer,
    TrainerConfig,
    TrainingRecord,
    calc_snr,
    export_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CustomBackward",
    "GradcheckReport",
    "MetricSpec",
    "NetworkConfig",
    "OnnkitError",
    "OpBlock",
    "OpNetwork",
    "OpTier",
    "OperatorConstants",
    "OperatorSet",
    "OperatorSetLibrary",
    "Parameter",
    "SGD",
    "Tape",
    "Tensor",
    "Trainer",
    "TrainerConfig",
    "TrainingRecord",
    "UnfoldPlan",
    "Variable",
    "add_custom_operator",
    "apply_custom",
    "backward",
    "calc_snr",
    "check_operator_set_gradients",
    "export_stats",
    "get_plan",
    "gradcheck",
    "make_optimizer",
    "network_forward",
    "register_builtin_library",
    "resample",
    "unfold",
]
