"""fsindep: finite-state compression and independence experiments.

Words and streams over small alphabets, multi-tape transducers with a
budgeted deterministic run engine, block-balanced word towers with a
self-similar stream, block statistics, and two conditional compressors
used to measure whether one stream helps compress another.
"""

from .words import (
    Alphabet,
    FiniteWord,
    word,
    occ,
    alocc,
    regroup,
    even,
    odd,
    join,
    read_word_file,
    write_word_file,
)
from .sources import (
    WordSource,
    SourceExhausted,
    PeriodicSource,
    RandomSource,
    LiteralSource,
    EvenSource,
    OddSource,
    JoinSource,
    file_source,
    derive_seed,
)
from .automata import (
    Transition,
    KAutomaton,
    parse_automaton,
    load_automaton,
    Violation,
    DeterminismReport,
    NotDeterministicError,
    check_l_deterministic,
    RunTrace,
    run,
    accepts_prefix_tuple,
    forward_pairs,
    ForwardSearchResult,
    find_forward_word,
    copy_automaton,
    odd_projection_transducer,
    even_projection_transducer,
)
from .perfect import (
    PerfectStage,
    is_perfect,
    double_length_extend,
    same_length_extend,
    build_sequence,
    SelfSimilarSource,
    self_similar_source,
)
from .normality import (
    BlockCountTable,
    block_counts,
    discrepancy,
    NormalityReport,
    normality_report,
    occurrence_profile,
    TailBoundReport,
    hardy_bound_eval,
)
from .compression import (
    RatioEstimate,
    TransducerHalted,
    DecodeDeadEnd,
    plain_ratio,
    conditional_ratio,
    TransducerOutputSource,
    match_run_compress,
    match_run_decompress,
    match_run_automaton,
    ConditionalModel,
    train_model,
    PrefixCode,
    build_prefix_code,
    cond_encode,
    cond_decode,
    conditional_ratio_estimate,
    unconditional_ratio_estimate,
    IndependenceReport,
    independence_report,
    LosslessnessReport,
    bounded_losslessness_check,
)

__version__ = "0.1.0"
