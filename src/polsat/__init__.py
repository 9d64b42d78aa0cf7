"""polsat: a portfolio LTL satisfiability solver and solver-testing platform."""

from .formulas import (
    ALTERNATE_DIALECT,
    DEFAULT_DIALECT,
    FALSE,
    TRUE,
    And,
    FalseConst,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Prop,
    Release,
    TrueConst,
    Until,
    closure,
    nnf,
    node_count,
    parse,
    prop_names,
    render,
)
from .lasso import EvidenceError, LassoWord, evaluate, parse_evidence, print_evidence
from .engine import Budget, Verdict, tableau_check
from .portfolio import (
    ConsistencyReport,
    PortfolioResult,
    RunRecord,
    SolverSpec,
    arbitrate,
    internal_solvers,
    race,
    run_all,
)
from .external import (
    ExternalSolverSpec,
    RegistrationError,
    Registry,
    as_solver_spec,
    default_registry_path,
    invoke,
    register,
)
from .bench import (
    BenchReport,
    CactusSeries,
    cactus,
    cactus_text,
    gen_O1,
    gen_conjunction,
    gen_random,
    run_file,
)

__version__ = "0.1.0"
