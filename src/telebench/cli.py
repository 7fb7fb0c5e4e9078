"""Command-line front end: config ingestion, orchestration, report emission.

Exit codes: 0 on success, 1 on runtime failure inside the pipeline, 2 on
usage or config errors. Reports are deterministic for a given (config,
seed); the only non-deterministic field is the metadata timestamp.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .circuit import DeviceParams
from .teleport_bench import (
    ENTANGLED_INPUT_LABELS,
    INPUT_LABELS,
    OUTCOMES,
    PAPER_REFERENCE,
    report_csv_text,
    report_json_text,
    run_benchmark,
    run_state,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_FORMATS = ("json", "csv", "both")


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    device: DeviceParams
    shots: int = 0
    seed: int | None = None
    noise: bool = False
    out: Path = Path(".")
    format: str = "json"
    restarts: int = 200

    @property
    def effective_seed(self) -> int:
        return 0 if self.seed is None else int(self.seed)


def _load_config_file(path: str) -> dict:
    candidate = Path(path)
    if not candidate.exists():
        bundled = resources.files("telebench").joinpath(f"data/{candidate.name}")
        if candidate.name == str(candidate) and bundled.is_file():
            text = bundled.read_text()
        else:
            raise ConfigError(f"config file not found: {path}")
    else:
        text = candidate.read_text()

    def reject_constant(constant: str):
        raise ConfigError(f"config file {path} contains the non-finite number {constant}")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    data = _load_config_file(args.config) if args.config else {}
    known = {"device", "shots", "seed", "noise", "out", "format", "restarts"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    try:
        device = DeviceParams.from_dict(data["device"]) if "device" in data else DeviceParams.reference()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid device config: {exc}")

    def pick(name, override, default):
        if override is not None:
            return override
        return data.get(name, default)

    shots = pick("shots", args.shots, 0)
    seed = pick("seed", args.seed, None)
    noise = pick("noise", None if args.noise is None else args.noise == "on", False)
    out = pick("out", args.out, ".")
    fmt = pick("format", args.format, "json")
    restarts = pick("restarts", args.restarts, 200)

    def is_plain_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    if not is_plain_int(shots) or shots < 0:
        raise ConfigError(f"'shots' must be a non-negative integer, got {shots!r}")
    if seed is not None and not is_plain_int(seed):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    if not isinstance(noise, bool):
        raise ConfigError(f"'noise' must be a boolean, got {noise!r}")
    if fmt not in _FORMATS:
        raise ConfigError(f"'format' must be one of {_FORMATS}, got {fmt!r}")
    if not is_plain_int(restarts) or restarts < 1:
        raise ConfigError(f"'restarts' must be a positive integer, got {restarts!r}")
    if shots > 0 and seed is None:
        raise ConfigError("'seed' is required when shots > 0")
    return RunConfig(
        device=device, shots=shots, seed=seed, noise=noise, out=Path(out), format=fmt, restarts=restarts
    )


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fmt(value, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.4f}".rjust(width)


def _print_bench_summary(report: dict) -> None:
    ref = report["paper_reference"]
    print("three-qubit output states")
    print(f"  {'input':<7}{'fidelity':>10}{'reference':>11}")
    for label in INPUT_LABELS:
        sim = report["states"][label]["state_fidelity"]
        print(f"  {label:<7}{_fmt(sim)}{_fmt(ref['state_fidelity'][label], 11)}")
    print("entanglement (entangled inputs)")
    print(f"  {'input':<7}{'witness':>10}{'reference':>11}{'robustness':>12}{'reference':>11}{'tangle<=':>10}{'reference':>11}")
    for label in ENTANGLED_INPUT_LABELS:
        entry = report["states"][label]
        if "witness" not in entry:
            continue
        print(
            f"  {label:<7}"
            f"{_fmt(entry['witness']['expectation'])}{_fmt(ref['witness_expectation'], 11)}"
            f"{_fmt(entry['witness']['robustness_lower_bound'], 12)}{_fmt(ref['robustness_lower_bound'], 11)}"
            f"{_fmt(entry['three_tangle_upper'])}{_fmt(ref['three_tangle'][label], 11)}"
        )
    print("conditional processes")
    print(f"  {'outcome':<8}{'Fp':>10}{'reference':>11}{'Fbar':>10}{'reference':>11}")
    for outcome in OUTCOMES:
        proc = report["processes"][outcome]
        if proc.get("skipped"):
            print(f"  {outcome:<8}{'skipped':>10}")
            continue
        print(
            f"  {outcome:<8}"
            f"{_fmt(proc['process_fidelity'])}{_fmt(ref['process_fidelity'][outcome], 11)}"
            f"{_fmt(proc['average_output_fidelity'])}{_fmt(ref['average_output_fidelity'][outcome], 11)}"
        )
    mean_fbar = report["averages"]["mean_average_output_fidelity"]
    print(f"mean Fbar: {_fmt(mean_fbar, 0).strip()} (reference {ref['mean_average_output_fidelity']})")


def command_bench(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    report = run_benchmark(
        device=config.device,
        shots=config.shots,
        seed=config.effective_seed,
        noise=config.noise,
        restarts=config.restarts,
    )
    report["metadata"]["timestamp"] = _timestamp()
    config.out.mkdir(parents=True, exist_ok=True)
    written = []
    if config.format in ("json", "both"):
        path = config.out / "report.json"
        path.write_text(report_json_text(report))
        written.append(path)
    if config.format in ("csv", "both"):
        path = config.out / "report.csv"
        path.write_text(report_csv_text(report))
        written.append(path)
    _print_bench_summary(report)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def command_state(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    label = args.input
    result = run_state(
        device=config.device,
        label=label,
        shots=config.shots,
        seed=config.effective_seed,
        noise=config.noise,
        restarts=config.restarts,
    )
    result["metadata"]["timestamp"] = _timestamp()
    config.out.mkdir(parents=True, exist_ok=True)
    path = config.out / f"state_{label}.json"
    path.write_text(report_json_text(result))
    print(f"input {label}: fidelity {result['state_fidelity']:.4f}")
    if "witness" in result:
        print(
            f"witness expectation {result['witness']['expectation']:.4f}"
            f" (reference {PAPER_REFERENCE['witness_expectation']})"
        )
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telebench",
        description="Simulate and benchmark a three-qubit teleportation circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None, help="JSON run config")
        p.add_argument("--shots", type=int, default=None, help="shots per Pauli setting (0 = analytic)")
        p.add_argument("--seed", type=int, default=None, help="random seed (required when shots > 0)")
        p.add_argument("--noise", choices=("on", "off"), default=None, help="enable decoherence")
        p.add_argument("--out", metavar="DIR", default=None, help="output directory")
        p.add_argument("--format", choices=_FORMATS, default=None, help="report format")
        p.add_argument("--restarts", type=int, default=None, help="decomposition-search restarts")

    bench = sub.add_parser("bench", help="run the full benchmark and write report(s)")
    add_common(bench)
    bench.set_defaults(func=command_bench)

    state = sub.add_parser("state", help="reconstruct a single prepared state")
    state.add_argument("input", choices=INPUT_LABELS, help="input-state label")
    add_common(state)
    state.set_defaults(func=command_state)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
