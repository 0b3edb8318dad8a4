"""Correctness bounds, exact information-theoretic checks, and Monte Carlo
simulation for test-time search strategies (Best-of-N, beam search, tree
search envelopes, lookahead), plus budget calibration and kernel dependence
analysis."""

__version__ = "0.9.0"

from .models import (  # noqa: F401
    AnswerModel,
    DecayModel,
    SelectorModel,
    WrongModel,
    selector_success_prob,
    step_correct_prob,
)
