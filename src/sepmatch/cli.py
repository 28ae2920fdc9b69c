"""Command-line front door: solve, evaluate, mix, bench, confusion.

Exit codes are stable across subcommands: 0 success, 2 input error,
3 guard/limit violation, 4 I/O failure. Machine-readable output goes to
stdout (or named files); stderr carries diagnostics only.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from .assignment import (
    BRUTEFORCE_GUARD,
    SinkhornConfig,
    _check_guard,
    load_matrix,
    solve_bruteforce,
    solve_hungarian,
    solve_sinkhorn,
)
from .bench import (
    CSV_HEADER,
    PROFILE_CSV_HEADER,
    export_confusion,
    iteration_profile,
    reports_to_csv,
    reports_to_jsonl,
    sweep_solvers,
)
from .errors import GuardLimitError, InvalidInputError
from .metrics import EncodedInstance, SeparationInstance, hungarian_loss, si_sdr_improvement
from .mixtures import SYNTHETIC_KINDS, MixSpec, generate_sources, mix, truncate_to_min
from .wavio import parse_wav, read_wav, write_wav

# `evaluate` no longer calls `read_wav`, `truncate_to_min` or `SeparationInstance`;
# they stay importable here because perfbench/tracing.py times calls by these names.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_IO = 4


def _cmd_solve(args) -> None:
    matrix = load_matrix(args.matrix)
    if args.solver == "hungarian":
        result = solve_hungarian(matrix)
    elif args.solver == "bruteforce":
        result = solve_bruteforce(matrix, guard=args.guard)
    else:
        config = SinkhornConfig(iterations=args.sinkhorn_iterations, temperature=args.temperature)
        result = solve_sinkhorn(matrix, config=config)
    if args.format == "text":
        print(f"permutation: {' '.join(str(int(j)) for j in result.permutation)}")
        print(f"total_cost: {result.total_cost!r}")
        print(f"iterations: {result.iterations}")
        print(f"elapsed_ns: {result.elapsed_ns}")
    else:
        print(result.to_json())


def _cmd_evaluate(args) -> None:
    paths = [*args.targets, *args.estimates, args.mixture]
    parsed = [parse_wav(p) for p in paths]
    if len({rate for _, rate in parsed}) > 1:
        detail = ", ".join(f"{p}: {rate} Hz" for p, (_, rate) in zip(paths, parsed))
        raise InvalidInputError(f"sample-rate mismatch across inputs ({detail})")
    # Real separated outputs often differ by a few samples; harmonize by
    # scoring every input over the shortest one's samples.
    shortest = min(frames.size for frames, _ in parsed)
    rows = [frames[:shortest] for frames, _ in parsed]
    n = len(args.targets)
    instance = EncodedInstance(rows[:n], rows[n:-1], rows[-1])
    loss = hungarian_loss(instance)
    improvement = si_sdr_improvement(instance, loss.permutation)
    matched_si_snr = -loss.per_pair
    payload = {
        "permutation": [int(j) for j in loss.permutation],
        "per_source_si_snr": [float(x) for x in matched_si_snr],
        "per_source_si_sdri": [float(x) for x in improvement],
        "mean_si_snr": float(matched_si_snr.mean()),
        "mean_si_sdri": float(improvement.mean()),
        "mean_loss": loss.mean_loss,
    }
    print(json.dumps(payload))


def _cmd_mix(args) -> None:
    spec = MixSpec(
        num_sources=args.num_sources,
        sample_rate=args.sample_rate,
        duration=args.duration,
        snr_range=(args.snr_low, args.snr_high),
        seed=args.seed,
    )
    kinds = list(itertools.islice(itertools.cycle(SYNTHETIC_KINDS), spec.num_sources))
    sources = generate_sources(spec, kinds)
    mixture, gains = mix(sources, spec.snr_range, seed=spec.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source_names = [f"source_{i:02d}.wav" for i in range(spec.num_sources)]
    for name, source in zip(source_names, sources):
        write_wav(out_dir / name, source)
    write_wav(out_dir / "mixture.wav", mixture)
    # Paths stay relative so reruns with the same seed are byte-identical
    # no matter where the output lands.
    manifest = {
        "seed": spec.seed,
        "num_sources": spec.num_sources,
        "sample_rate": spec.sample_rate,
        "duration": spec.duration,
        "snr_range": [spec.snr_range[0], spec.snr_range[1]],
        "kinds": [k.variant for k in kinds],
        "gains": [float(g) for g in gains],
        "sources": source_names,
        "mixture": "mixture.wav",
    }
    manifest_text = json.dumps(manifest, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(manifest_text)
    print(json.dumps(manifest))


def _parse_list(text: str, convert) -> list:
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad {convert.__name__} list {text!r}: {exc}") from exc


def _cmd_bench(args) -> None:
    c_values = _parse_list(args.c_values, int)
    if args.profile_difficulties is None:
        stem, header = "reports", CSV_HEADER
        reports = sweep_solvers(c_values, args.trials, seed=args.seed, guard=args.guard)
    else:
        _check_guard(args.guard)  # sweep_solvers checks it on the sweep path
        if len(c_values) != 1:
            raise InvalidInputError("--profile-difficulties needs exactly one value in --c-values")
        stem, header = "profile", PROFILE_CSV_HEADER
        reports = iteration_profile(
            _parse_list(args.profile_difficulties, float), c_values[0], args.trials, args.seed
        )
    body = reports_to_jsonl(reports) if args.format == "json" else reports_to_csv(reports, header)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.{'jsonl' if args.format == 'json' else 'csv'}").write_text(body)
    else:
        sys.stdout.write(body)


def _cmd_confusion(args) -> None:
    export = export_confusion(load_matrix(args.matrix))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "confusion.json").write_text(export.to_json() + "\n")
        (out_dir / "confusion.pgm").write_bytes(export.to_pgm())
    print(export.to_json())


@functools.cache  # built once per process; parse_args leaves the tree unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepmatch",
        description="Assignment solving, separation metrics, mixing, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve a cost-matrix file")
    p.add_argument("matrix", help="cost matrix file (plain text or JSON)")
    p.add_argument("--solver", choices=("hungarian", "bruteforce", "sinkhorn"), default="hungarian")
    p.add_argument("--guard", type=int, default=BRUTEFORCE_GUARD, help="brute-force size guard")
    p.add_argument("--sinkhorn-iterations", type=int, default=200)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("evaluate", help="score estimate WAVs against target WAVs")
    p.add_argument("--targets", nargs="+", required=True, help="target WAV paths")
    p.add_argument("--estimates", nargs="+", required=True, help="estimate WAV paths")
    p.add_argument("--mixture", required=True, help="mixture WAV path")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("mix", help="generate synthetic sources and their mixture")
    p.add_argument("--num-sources", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=4.0, help="seconds")
    p.add_argument("--sample-rate", type=int, default=8000, help="Hz")
    p.add_argument("--snr-low", type=float, default=0.0, help="dB")
    p.add_argument("--snr-high", type=float, default=5.0, help="dB")
    p.set_defaults(handler=_cmd_mix)

    p = sub.add_parser("bench", help="time the solvers across matrix sizes")
    p.add_argument("--c-values", required=True, help="comma-separated matrix sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=BRUTEFORCE_GUARD)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out-dir", default=None, help="write reports here instead of stdout")
    p.add_argument(
        "--profile-difficulties",
        default=None,
        help="comma-separated difficulties in [0,1]; emit an iteration profile instead",
    )
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("confusion", help="export a solved matrix sorted by matched cost")
    p.add_argument("matrix", help="cost matrix file (plain text or JSON)")
    p.add_argument("--out-dir", default=None, help="also write confusion.json and confusion.pgm here")
    p.set_defaults(handler=_cmd_confusion)

    return parser


#: mallopt(3) parameters from glibc's <malloc.h>.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds for this process, once.

    glibc raises both whenever it frees an mmapped chunk, so whether a
    command's few-MB arrays reuse heap pages or are faulted in afresh and
    handed back on every call depends on what the process freed before. At
    fixed thresholds a repeated in-process command reuses its pages; other
    C libraries are left as they are.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest dynamic value
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except GuardLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
