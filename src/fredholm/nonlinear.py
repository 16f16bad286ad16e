"""Names ``bench/spans.py`` still wraps and no run calls.

A nonlinear equation is a ``FieProblem`` with a ``nonlinearity`` and runs
through ``build_network``, ``forward`` and ``query`` like a linear one
(see ``FieProblem``).  Each stub raises; the benchmark change that drops
its span from ``bench/spans.py`` deletes it.
"""

__all__ = ["linearized_source", "solve_nonlinear", "evaluate_nonlinear"]


def _gone(name):
    return NotImplementedError(
        f"{name} has no body; it is kept only while bench/spans.py wraps it")


def linearized_source(problem, base, prev_values):
    raise _gone("linearized_source")


def solve_nonlinear(problem, base, layers, schedule, keep_history=0):
    raise _gone("solve_nonlinear")


def evaluate_nonlinear(problem, base, field, points):
    raise _gone("evaluate_nonlinear")
