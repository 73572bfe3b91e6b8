"""Simulator for practical two- and four-state quantum bit-commitment
protocols under depolarizing noise: honest statistics, the verifier's
binomial acceptance test, and numerical optimisation of cheating
strategies (mid-basis measurement with outcome flipping, faked location,
and imperfect-photon-source attacks), with a Monte Carlo cross-check.

Each exported name is resolved on first use (PEP 562), from the
submodule :data:`_EXPORTS` lists it under, and then kept in this
namespace: ``import qbcsim`` loads no submodule, and NumPy comes in with
the first name whose module computes with it."""

from importlib import import_module

__version__ = "0.1.0"

#: The exported names, by the submodule that defines them.
_EXPORTS = {
    "attacks": (
        "DistanceScenario", "FakedDistance", "MultiPhotonMode", "beam_splitter_table",
        "ideal_multiphoton_table", "max_safe_distance", "max_safe_distance_noisy",
        "multiphoton_success",
    ),
    "mcsim": ("TrialConfig", "TrialReport", "run"),
    "protocol": (
        "AcceptanceTest", "ConditionalTable", "Variant", "binding_failure",
        "binomial_window_probability", "build_test", "commit_observable",
        "counted_outcomes", "honest_table", "log_binomial_window", "pass_factors",
        "pass_probability",
    ),
    "qcore": (
        "COMPUTATIONAL", "HADAMARD", "KET_0", "KET_1", "KET_MINUS", "KET_PLUS", "Basis",
        "Qubit", "basis_at_angle", "born", "breidbart", "helstrom_success",
    ),
    "strategy": (
        "BeamSplitter", "BreidbartFlips", "FlipParams", "Honest", "IdealMultiPhoton",
        "LogObjective", "OptimizationResult", "apply_flips", "breidbart_table",
        "cheat_success", "optimize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
