"""Optimal permutation matching and scale-invariant metrics for multi-source
signal separation.

The package is organized around five pieces: assignment solvers
(`assignment`), SI-SNR based metrics and matched losses (`metrics`),
deterministic synthetic mixtures (`mixtures`), the audio signal type with
its checks, sample codec and WAV I/O (`wavio`), and a benchmark harness
(`bench`). A CLI front end lives in `cli`.
"""

from .assignment import (
    BRUTEFORCE_GUARD,
    PERMUTATION_COUNT_MAX,
    AssignmentResult,
    CostMatrix,
    SinkhornConfig,
    load_matrix,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    permutation_count,
    solve_batch,
    solve_bruteforce,
    solve_hungarian,
    solve_sinkhorn,
)
from .bench import (
    BenchReport,
    ConfusionExport,
    ProfilePoint,
    export_confusion,
    iteration_profile,
    reports_to_csv,
    reports_to_jsonl,
    sweep_solvers,
)
from .errors import (
    EmptyInputError,
    GuardLimitError,
    InvalidInputError,
    MatrixParseError,
    SepmatchError,
    WavFormatError,
)
from .metrics import (
    SI_SNR_CLAMP_DB,
    SI_SNR_EPS,
    MatchedLoss,
    SeparationInstance,
    hungarian_loss,
    pairwise_cost_matrix,
    pit_loss,
    si_sdr_improvement,
    si_snr,
)
from .mixtures import (
    PEAK_AMPLITUDE,
    SYNTHETIC_KINDS,
    MixSpec,
    SourceKind,
    generate_sources,
    mix,
    truncate_to_min,
)
from .wavio import AudioSignal, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AssignmentResult",
    "AudioSignal",
    "BRUTEFORCE_GUARD",
    "BenchReport",
    "ConfusionExport",
    "CostMatrix",
    "EmptyInputError",
    "GuardLimitError",
    "InvalidInputError",
    "MatchedLoss",
    "MatrixParseError",
    "MixSpec",
    "PEAK_AMPLITUDE",
    "PERMUTATION_COUNT_MAX",
    "ProfilePoint",
    "SI_SNR_CLAMP_DB",
    "SI_SNR_EPS",
    "SYNTHETIC_KINDS",
    "SeparationInstance",
    "SepmatchError",
    "SinkhornConfig",
    "SourceKind",
    "WavFormatError",
    "export_confusion",
    "generate_sources",
    "hungarian_loss",
    "iteration_profile",
    "load_matrix",
    "matrix_from_json",
    "matrix_from_text",
    "matrix_to_json",
    "matrix_to_text",
    "mix",
    "pairwise_cost_matrix",
    "permutation_count",
    "pit_loss",
    "read_wav",
    "reports_to_csv",
    "reports_to_jsonl",
    "si_sdr_improvement",
    "si_snr",
    "solve_batch",
    "solve_bruteforce",
    "solve_hungarian",
    "solve_sinkhorn",
    "sweep_solvers",
    "truncate_to_min",
    "write_wav",
]
