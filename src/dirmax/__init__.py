"""dirmax: exact restricted directional maximal operators on the dyadic square.

Everything numeric in the core is an exact dyadic rational (or exact
Fraction where odd denominators are forced); floats appear only in fits and
reports.
"""

from types import ModuleType as _ModuleType

from .dyadic import DyadicRational
from .geometry import DyadicInterval, GridSpec
from .grids import (
    GridFunction,
    OneVarField,
    parse_field,
    parse_grid,
    render_field,
    render_grid,
)
from .family import (
    FamilyParams,
    GoodnessWitness,
    RectangleFamily,
    enumerate_family,
    is_good_collection,
)
from .maximal import (
    ChoiceMap,
    NormReport,
    apply_T,
    apply_T_adjoint,
    estimate_norm,
    linearize,
    m2_vertical,
    maximal_apply,
)
from .stopping_time import (
    DecompositionResult,
    GenerationRecord,
    SlopeAssignment,
    carleson_sum,
    classify_points,
    compute_assignments,
    decomposition_to_json,
    domination_check,
    omega_levels,
    partition_theta,
    run_generations,
    stopping_intervals,
)
from .badness import (
    BadnessTable,
    ShrinkTrace,
    badness_table,
    reformulate_check,
    shrink_iterate,
    shrink_once,
)
from .instances import (
    build_corpus,
    cascade_field,
    identity_field,
    make_kakeya_bundle,
    make_square_instance,
    organized_collections,
    random_field,
    random_grid,
)
from .sweeps import ExperimentConfig, multi_collection_experiment, sweep_delta, sweep_logn, sweep_lp
from .verify import run_verify
from .cli import cli_main

# the public names imported above; the submodules bound by those imports are not
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
