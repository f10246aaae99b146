"""Numerical laboratory for entropy decay and Sobolev-type inequalities
on weighted block-diagonal matrix algebras."""

from .algebra import (AlgebraElement, WeightedAlgebra, eigh, inner, make_rng,
                      matrix_function, pair_trace, random_element,
                      random_positive, trace)
from .certify import (CertificationResult, CheckReport, OptimizerBudget,
                      decay_check, estimate_constant, fisher_decay_check,
                      known_bracket, lemma_rtl_check,
                      martingale_recursion_replay, pnorm_decay_check,
                      sobolev_ratio)
from .channels import QuantumChannel, haar_unitary, random_mixed_unitary
from .doi import (TwoVariableKernel, cone_test, homogeneity_check,
                  log_difference, power_difference, schur_q,
                  superoperator_matrix)
from .entropy import (DerivationHandle, bregman, difference_derivation_from_moves,
                      entropy_vs_subalgebra, fisher_derivation,
                      fisher_generator, monotone_metric)
from .errors import (AlgebraMismatchError, ContractViolationError,
                     DegenerateStateError, DomainError)
from .functions import function_from_spec, log_fn, power, xlogx
from .models import (ConditionalExpectation, GeneratorHandle,
                     ampliate_generator, bernoulli_laplace, depolarizing,
                     graph_laplacian, martingale_subalgebra_expectations,
                     model_from_spec, random_transposition, semigroup_apply,
                     tensor_generator)
from .suite import CHECKS, reports_to_csv, suite_run, suite_verdict

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "WeightedAlgebra", "eigh",
    "inner", "make_rng", "matrix_function", "pair_trace", "random_element",
    "random_positive", "trace",
    "CertificationResult", "CheckReport", "OptimizerBudget", "decay_check",
    "estimate_constant", "fisher_decay_check", "known_bracket",
    "lemma_rtl_check", "martingale_recursion_replay", "pnorm_decay_check",
    "sobolev_ratio",
    "QuantumChannel", "haar_unitary", "random_mixed_unitary",
    "TwoVariableKernel", "cone_test", "homogeneity_check", "log_difference",
    "power_difference", "schur_q", "superoperator_matrix",
    "DerivationHandle", "bregman", "difference_derivation_from_moves",
    "entropy_vs_subalgebra", "fisher_derivation", "fisher_generator",
    "monotone_metric",
    "AlgebraMismatchError", "ContractViolationError", "DegenerateStateError",
    "DomainError",
    "function_from_spec", "log_fn", "power", "xlogx",
    "ConditionalExpectation", "GeneratorHandle", "ampliate_generator",
    "bernoulli_laplace", "depolarizing", "graph_laplacian",
    "martingale_subalgebra_expectations", "model_from_spec",
    "random_transposition", "semigroup_apply", "tensor_generator",
    "CHECKS", "reports_to_csv", "suite_run", "suite_verdict",
]
