"""fsindep: finite-state compression and independence experiments.

Words and streams over small alphabets, multi-tape transducers with a
budgeted deterministic run engine, block-balanced word towers with a
self-similar stream, block statistics, and two conditional compressors
used to measure whether one stream helps compress another.

Importing the package loads none of its modules: each exported name is
looked up in its module on every access (PEP 562), which loads that
module the first time.  Nothing is cached here, so a name always reads
what its module holds now.
"""

import importlib
import sys

# module -> the names the package exports from it
_EXPORTS = {
    "words": "Alphabet FiniteWord word occ alocc regroup even odd join read_word_file "
    "write_word_file",
    "sources": "WordSource SourceExhausted PeriodicSource RandomSource LiteralSource "
    "EvenSource OddSource JoinSource file_source derive_seed NotDeterministicError "
    "TransducerHalted DecodeDeadEnd",
    "automata": "Transition KAutomaton parse_automaton load_automaton Violation "
    "DeterminismReport check_l_deterministic RunTrace run accepts_prefix_tuple "
    "forward_pairs ForwardSearchResult find_forward_word copy_automaton "
    "odd_projection_transducer even_projection_transducer",
    "perfect": "PerfectStage is_perfect double_length_extend same_length_extend "
    "build_sequence SelfSimilarSource self_similar_source",
    "normality": "BlockCountTable block_counts discrepancy NormalityReport normality_report "
    "occurrence_profile TailBoundReport hardy_bound_eval",
    "compression": "RatioEstimate plain_ratio conditional_ratio TransducerOutputSource "
    "match_run_compress match_run_decompress match_run_automaton ConditionalModel "
    "train_model PrefixCode build_prefix_code cond_encode cond_decode "
    "conditional_ratio_estimate unconditional_ratio_estimate IndependenceReport "
    "independence_report LosslessnessReport bounded_losslessness_check",
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__():
    return sorted({*globals(), *__all__})
