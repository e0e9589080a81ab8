"""Stochastic Activity Networks (SAN).

An open re-implementation of the SAN formalism used by the Möbius tool
[Sanders & Meyer 2001; Daly et al. 2000], which the reproduced paper builds
its Automated-Highway-System safety models in:

* *state*: :class:`~repro.san.places.Place` (integer marking) and
  :class:`~repro.san.places.ExtendedPlace` (structured marking — the paper's
  ``platoon1``/``platoon2`` arrays and severity-class arrays);
* *actions*: :class:`~repro.san.activities.TimedActivity` (distributed firing
  delay, marking-dependent rates, probabilistic *cases*) and
  :class:`~repro.san.activities.InstantaneousActivity`;
* *connectivity*: :class:`~repro.san.gates.InputGate` (enabling predicate +
  firing function) and :class:`~repro.san.gates.OutputGate`;
* *composition*: ``join`` and ``replicate`` (the Rep/Join operators of the
  paper's Figure 9) in :mod:`repro.san.composition`;
* *solution*: a discrete-event simulator with Möbius execution semantics
  (:mod:`repro.san.simulator`), and a state-space generator producing a CTMC
  for numerical transient analysis (:mod:`repro.san.statespace`).
"""

from repro.san.places import Place, ExtendedPlace
from repro.san.marking import Marking, GateView, MarkingFunction
from repro.san.gates import InputGate, OutputGate, input_arc, output_arc
from repro.san.activities import Case, TimedActivity, InstantaneousActivity
from repro.san.model import SANModel
from repro.san.composition import join, replicate
from repro.san.simulator import SANSimulator, MarkovJumpSimulator, SimulationRun
from repro.san.compiled import (
    DEFAULT_ENGINE,
    ENGINES,
    CompiledJumpEngine,
    CompiledMarking,
    CompiledModel,
    compile_model,
    make_jump_engine,
)
from repro.san.batched import DEFAULT_BATCH_SIZE, BatchedJumpEngine
from repro.san.stepped import SteppedJumpEngine
from repro.san.multipoint import (
    MultiPointContext,
    MultiPointJob,
    tensor_compatible,
)
from repro.san.registry import (
    AdmissionResult,
    ModelSpec,
    admission_key,
    admit,
    get_model,
    list_models,
    register_model,
    unregister_model,
)
from repro.san.statespace import StateSpace, generate_state_space
from repro.san.rewards import RateReward, ImpulseReward, TransientEstimate
from repro.san.validation import validate_model, ModelValidationError
from repro.san.describe import describe_lowering, describe_model, to_dot

__all__ = [
    "Place",
    "ExtendedPlace",
    "Marking",
    "GateView",
    "MarkingFunction",
    "InputGate",
    "OutputGate",
    "input_arc",
    "output_arc",
    "Case",
    "TimedActivity",
    "InstantaneousActivity",
    "SANModel",
    "join",
    "replicate",
    "SANSimulator",
    "MarkovJumpSimulator",
    "SimulationRun",
    "ENGINES",
    "DEFAULT_ENGINE",
    "BatchedJumpEngine",
    "SteppedJumpEngine",
    "MultiPointContext",
    "MultiPointJob",
    "tensor_compatible",
    "DEFAULT_BATCH_SIZE",
    "CompiledJumpEngine",
    "CompiledMarking",
    "CompiledModel",
    "compile_model",
    "make_jump_engine",
    "AdmissionResult",
    "ModelSpec",
    "admission_key",
    "admit",
    "get_model",
    "list_models",
    "register_model",
    "unregister_model",
    "StateSpace",
    "generate_state_space",
    "RateReward",
    "ImpulseReward",
    "TransientEstimate",
    "validate_model",
    "ModelValidationError",
    "describe_lowering",
    "describe_model",
    "to_dot",
]
