"""Exact computations around open books, page framings, and support genus.

The layers, bottom to top:

* :mod:`supportgenus.zlinalg` exact integer linear algebra (Smith
  normal form, kernels, integral solving);
* :mod:`supportgenus.ribbon` disk-with-bands pages, curves on them,
  twists and stabilizations;
* :mod:`supportgenus.seifert` the Seifert pairing and page framings;
* :mod:`supportgenus.stein` rotation numbers through the handle chain
  complex;
* :mod:`supportgenus.hfbook` small Heegaard Floer bookkeeping;
* :mod:`supportgenus.sgengine` interval derivation for support genus;
* :mod:`supportgenus.inputdoc` the JSON input format;
* :mod:`supportgenus.fixtures` bundled example documents;
* :mod:`supportgenus.cli` the command line front end.
"""

from __future__ import annotations

from .errors import ToolkitError
from .fixtures import FIXTURE_NAMES, build_fixture, load_fixture, write_fixture_files
from .hfbook import (
    FormalHFModule,
    SpincSlot,
    SurgeryRangeError,
    hf_hat,
    hf_plus_surgery,
    hf_red_rank,
    pigeonhole_excess,
    trefoil_rotation_list,
)
from .inputdoc import (
    CurveRecord,
    InputDocument,
    InputFormatError,
    OpenBookRecord,
    parse_dict,
    parse_text,
    serialize,
    serialize_text,
)
from .ribbon import (
    CurveClass,
    CurveMismatchError,
    MalformedSurfaceError,
    OpenBook,
    RibbonSurface,
    build_surface,
    dehn_twist_action,
    intersection_form,
    stabilize,
)
from .seifert import page_framing_self_linking, seifert_matrix
from .sgengine import (
    FactError,
    InconsistentFactsError,
    LegendrianDesc,
    SGFact,
    SGInterval,
    TraceStep,
    derive_bounds,
    replay_trace,
    stabilized,
    trefoil_mountain_check,
)
from .stein import (
    KernelAmbiguityError,
    KernelObstructionError,
    RotationResult,
    SteinCurve,
    SteinPositivityError,
    SteinProblem,
    base_rotation_planar,
    boundary_matrix,
    c1_cochain,
    format_cycle,
    rotation_number,
)
from .zlinalg import (
    IntMatrix,
    hermite_reduce,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)

__version__ = "0.1.0"

__all__ = [
    "CurveClass",
    "CurveMismatchError",
    "CurveRecord",
    "FIXTURE_NAMES",
    "FactError",
    "FormalHFModule",
    "InconsistentFactsError",
    "InputDocument",
    "InputFormatError",
    "IntMatrix",
    "KernelAmbiguityError",
    "KernelObstructionError",
    "LegendrianDesc",
    "MalformedSurfaceError",
    "OpenBook",
    "OpenBookRecord",
    "RibbonSurface",
    "RotationResult",
    "SGFact",
    "SGInterval",
    "SpincSlot",
    "SteinCurve",
    "SteinPositivityError",
    "SteinProblem",
    "SurgeryRangeError",
    "ToolkitError",
    "TraceStep",
    "base_rotation_planar",
    "boundary_matrix",
    "build_fixture",
    "build_surface",
    "c1_cochain",
    "dehn_twist_action",
    "derive_bounds",
    "format_cycle",
    "hermite_reduce",
    "hf_hat",
    "hf_plus_surgery",
    "hf_red_rank",
    "intersection_form",
    "kernel_basis",
    "load_fixture",
    "page_framing_self_linking",
    "parse_dict",
    "parse_text",
    "pigeonhole_excess",
    "replay_trace",
    "rotation_number",
    "seifert_matrix",
    "serialize",
    "serialize_text",
    "smith_normal_form",
    "solve_integer",
    "stabilize",
    "stabilized",
    "trefoil_mountain_check",
    "trefoil_rotation_list",
    "write_fixture_files",
]
