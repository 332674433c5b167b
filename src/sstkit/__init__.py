"""Copyless streaming string transducers and their analysis.

The package is organized around one model (``model``: updates, transducers,
runs, brute-force oracles) and the machinery built on top of it:
``skeletons`` (loops and pumping), ``wordcomb`` (primitive roots, cuts, and
word inequalities), ``delay`` (run similarity), ``analysis`` (ambiguity and
valuedness verdicts), and ``decompose`` (semantic covers and selector
decomposition).  ``fixtures`` bundles the example machines; ``cli`` is the
command-line front end.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CopylessError,
    InputMismatchError,
    NotIdempotentError,
    OutputMismatchError,
    ParameterError,
    ParseError,
    RunError,
    SstKitError,
    UnknownSymbolError,
    VariableSetMismatchError,
)
from .model import (
    Budget,
    Run,
    Sst,
    Transition,
    Update,
    ambiguity_oracle,
    compose_updates,
    concat_runs,
    coreachable_states,
    enumerate_runs,
    eval_run,
    outputs,
    output_via_updates,
    reachable_states,
    valuedness_oracle,
    words_over,
)
from .sstformat import parse_sst
from .skeletons import (
    LoopSet,
    PumpedOutputExpr,
    Skeleton,
    compose_skeletons,
    find_loops,
    idempotent_power_words,
    interval_update,
    is_idempotent,
    pump,
    pumped_output_expr,
    skeleton_monoid,
    skeleton_of,
)
from .wordcomb import (
    Inequality,
    ParamWord,
    cuts,
    find_solution_box,
    find_system_solution,
    instantiate,
    is_solution,
    nonsolutions_single,
    primitive_root,
)
from .delay import DelayReport, RunProfile, delay, weight, weight_table
from .decompose import (
    check_equivalence_bounded,
    decompose_selectors,
    lex_compare,
    ranked_outputs,
    semantic_cover,
)
from .analysis import (
    DivergentPattern,
    Dumbbell,
    SearchBudget,
    Verdict,
    WPattern,
    amplify_valuedness,
    analyze_valuedness,
    build_wrun,
    find_dumbbell,
    is_finite_ambiguous,
    is_simply_divergent,
)
from . import fixtures
