"""Training-free solvers for Fredholm integral equations of the second
kind, built as layered fixed-point networks with analytically assembled
weights.  Covers linear and nonlinear integral equations, two-point
boundary value problems, and the Laplace equation on the unit disc via a
boundary integral equation, with one contraction bound for the error
figure and the depth planner, a dense reference and an FD comparison.
"""

from .errors import (DivergenceError, DomainError, ExprSyntaxError,
                     FredholmError, NumericalError, SingularSystemError,
                     UnboundVariableError, ValidationError)
from .exprlang import compile_fn, parse
from .grid import Grid1D, uniform_grid
from .operator import (DiscreteOperator, FieProblem, KMSchedule, discretize,
                       estimate_contraction, residual_norm)
from .network import (FixedPointNet, SolutionField, budget_from_operator,
                      build_network, dense_solve, error_bound, forward,
                      layer_sweep, plan_layers, query)
from . import nonlinear  # noqa: F401  (bench/spans.py traces its names)
from .bvp import (BvpSpec, bvp_to_fie, green_operator, ode_residual,
                  recover_solution)
from .laplace import build_bie, evaluate_potential, projected_potential
from .fd import PolarGrid, solve_fd
from .registry import EXAMPLES, ExampleSpec, example_names, get_example
from .report import ReportBundle, render_csv, render_json, write_report
from .cli import main, run_compare_fd, run_config, run_example

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "DomainError", "ExprSyntaxError", "FredholmError",
    "NumericalError", "SingularSystemError", "UnboundVariableError",
    "ValidationError",
    "compile_fn", "parse",
    "Grid1D", "uniform_grid",
    "DiscreteOperator", "FieProblem", "KMSchedule", "discretize",
    "estimate_contraction", "residual_norm",
    "FixedPointNet", "SolutionField", "budget_from_operator",
    "build_network", "dense_solve", "error_bound", "forward",
    "layer_sweep", "plan_layers", "query",
    "BvpSpec", "bvp_to_fie", "green_operator", "ode_residual",
    "recover_solution",
    "build_bie", "evaluate_potential", "projected_potential",
    "PolarGrid", "solve_fd",
    "EXAMPLES", "ExampleSpec", "example_names", "get_example",
    "ReportBundle", "render_csv", "render_json", "write_report",
    "main", "run_compare_fd", "run_config", "run_example",
    "__version__",
]
