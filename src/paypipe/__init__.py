"""paypipe: a deterministic execution engine for payment pipelines.

Token streams flow through a directed acyclic graph of nodes: an originator
turns deposits into streams, routers (built from reusable templates) retain,
split, gate, or report them, and endpoints pay the funds out. Every external
trigger runs as one atomic, gas-metered transaction over an integrated
token ledger, producing a deterministic event trace.

The names below are the library's surface; everything else stays importable
from its submodule.
"""

from .bench import format_report, run_comparison
from .engine import ConservationBreach, CostTable, Engine, EventRecord, TxResult
from .errors import EngineError, SpecSyntaxError, SpecValidationError
from .nodes import ErrorSeverity, Node, PolicyAction, StreamError, StreamMessage
from .pipeline import (
    PipelineSpec,
    ValidationError,
    instantiate,
    parse_pipeline,
    serialize_pipeline,
    validate_pipeline,
)
from .scenario import parse_scenario, run_scenario
from .templates import TEMPLATES, Template

__version__ = "0.1.0"

__all__ = [
    "parse_pipeline", "validate_pipeline", "serialize_pipeline", "instantiate",
    "PipelineSpec", "ValidationError",
    "parse_scenario", "run_scenario",
    "Engine", "CostTable", "TxResult", "EventRecord", "ConservationBreach",
    "Node", "StreamMessage", "StreamError", "ErrorSeverity", "PolicyAction",
    "Template", "TEMPLATES",
    "run_comparison", "format_report",
    "EngineError", "SpecSyntaxError", "SpecValidationError",
    "__version__",
]
