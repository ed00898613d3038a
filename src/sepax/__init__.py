"""Strategyproofness of ordinal mechanisms with indifferences, decomposed
into local separation axioms, with exact rational arithmetic throughout.

The package verifies mechanisms (axiom checkers with re-checkable
counterexample certificates, brute-force dominance scans, agreement
reports), walks the structural ladder between orders (separations, multiway
splits, refinements, utility-segment paths), and designs optimal
strategyproof mechanisms by compiling the axioms into an exact LP. A
mechanism is a `MechanismTable`, ``(m, denominator, rows)``, built by its
one constructor from one ``(den, ints)`` pair per order and valid once
built.
"""

from .axioms import (
    AXIOMS,
    AxiomReport,
    Certificate,
    Separation,
    all_separations,
    check_all_axioms,
    enumerate_separations,
    find_violations,
    verify_certificate,
)
from .core import (
    FormatError,
    Lottery,
    UtilityFn,
    WeakOrder,
    canonical_utility,
    consistent,
    enumerate_weak_orders,
    fosd,
    format_rational,
    order_from_utility,
    ordered_set_partitions,
    parse_rational,
    strictly_consistent,
)
from .lp import Constraint, LinearProgram, LPSolution, solve_lp
from .mechanisms import (
    ZOO,
    DuplicateOrderError,
    InvalidLotteryError,
    MalformedRationalError,
    MechanismFormatError,
    MechanismTable,
    MissingOrderError,
    k_sensitive_boost,
    load_mechanism,
    mechanism_from_json,
    mechanism_to_json,
    min_top_dictator,
    random_deterministic_mechanism,
    random_mechanism,
    rank_score,
    save_mechanism,
    top_class_uniform,
    uniform_lottery,
)
from .paths import (
    MultiwaySeparation,
    PathResult,
    Refinement,
    UtilitySegment,
    as_multiway_separation,
    as_separation,
    as_refinement,
    blend_utilities,
    check_refinement_sp,
    enumerate_multiway_separations,
    enumerate_refinements,
    random_strict_utility,
    refinement_path,
    split_chain,
    utility_segment,
)
from .verify import (
    ConstraintCounts,
    EquivalenceReport,
    NotDeterministicError,
    ScanReport,
    SPViolation,
    check_decomposition,
    check_deterministic_decomposition,
    check_relaxed_decomposition,
    check_sp_bruteforce,
    count_constraints,
    fubini_number,
    scan_deterministic_decomposition,
    scan_random_mechanisms,
    verify_sp_violation,
)
from .amd import (
    g_program,
    generate_sp_constraints,
    load_objective,
    lp_summary,
    objective_from_json,
    random_objective,
    solve_design,
    top_class_welfare_objective,
    variable_names,
)

__version__ = "0.1.0"
