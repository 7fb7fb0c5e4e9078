"""Command-line front end: config ingestion, orchestration, report emission.

Exit codes: 0 on success, 1 on runtime failure inside the pipeline, 2 on
usage or config errors. Reports are deterministic for a given (config,
seed); the only non-deterministic field is the metadata timestamp.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
from pathlib import Path

from .circuit import DeviceParams
from .entanglement import DEFAULT_RESTARTS
from .teleport_bench import (
    ENTANGLED_INPUT_LABELS,
    INPUT_LABELS,
    OUTCOMES,
    PAPER_REFERENCE,
    check_run_settings,
    report_csv_text,
    report_json_text,
    run_benchmark,
    run_state,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_FORMATS = ("json", "csv", "both")

# Each run setting's value when neither its flag nor the config file sets it.
_DEFAULTS = {"shots": 0, "seed": None, "noise": False, "out": ".", "format": "json", "restarts": DEFAULT_RESTARTS}


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except (OSError, ValueError) as exc:  # ValueError: a path the OS refuses, such as one with a null byte
        raise ConfigError(f"cannot read config file {path}: {getattr(exc, 'strerror', None) or exc}")

    def reject_constant(constant: str):
        raise ConfigError(f"config file {path} contains the non-finite number {constant}")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def _build_run_config(args: argparse.Namespace) -> tuple[DeviceParams, dict]:
    """The device and the six run settings, each from its flag, else the config file, else ``_DEFAULTS``.

    ``check_run_settings`` checks shots, seed, noise and restarts; its message is the config error. The
    seed resolves to an int, 0 when unset; ``None`` lives only here, for the check that sampled runs name one.
    """
    data = {} if args.config is None else _load_config_file(args.config)
    unknown = set(data) - {"device", *_DEFAULTS}
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    try:
        device = DeviceParams.from_dict(data["device"]) if "device" in data else DeviceParams.reference()
    except ValueError as exc:
        raise ConfigError(f"invalid device config: {exc}")

    flags = {**vars(args), "noise": {"on": True, "off": False}.get(args.noise)}
    settings = {name: data.get(name, _DEFAULTS[name]) if flags[name] is None else flags[name] for name in _DEFAULTS}
    seed = settings["seed"]
    settings["seed"] = 0 if seed is None else seed
    checked = ("shots", "seed", "noise", "restarts")
    try:
        settings.update(zip(checked, check_run_settings(*(settings[name] for name in checked))))
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not isinstance(settings["out"], str):
        raise ConfigError(f"'out' must be a directory path string, got {settings['out']!r}")
    # The run makes the missing part of the path; a file on it, or a name the OS refuses, would fail after the run.
    try:
        os.stat(out := settings["out"])
    except (FileNotFoundError, NotADirectoryError):
        pass  # the nearest existing parent is checked below
    except (OSError, ValueError) as exc:
        raise ConfigError(f"'out' is not a usable directory path: {getattr(exc, 'strerror', None) or exc}")
    if not os.path.isdir(out):
        nearest = next(p for p in (Path(out), *Path(out).parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"'out' must be a directory path, but {nearest} is not a directory")
    if settings["format"] not in _FORMATS:
        raise ConfigError(f"'format' must be one of {_FORMATS}, got {settings['format']!r}")
    if settings["shots"] > 0 and seed is None:
        raise ConfigError("'seed' is required when shots > 0")
    return device, settings


def _fmt(value, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.4f}".rjust(width)


def _print_bench_summary(report: dict) -> None:
    ref = report["paper_reference"]
    print("three-qubit output states")
    print(f"  {'input':<7}{'fidelity':>10}{'paper':>11}")
    for label in INPUT_LABELS:
        sim = report["states"][label]["state_fidelity"]
        print(f"  {label:<7}{_fmt(sim)}{_fmt(ref['state_fidelity'][label], 11)}")
    print("entanglement (entangled inputs)")
    print(f"  {'input':<7}{'witness':>10}{'paper':>11}{'robustness':>12}{'paper':>11}{'tangle<=':>10}{'paper':>11}")
    for label in ENTANGLED_INPUT_LABELS:
        entry = report["states"][label]
        print(
            f"  {label:<7}"
            f"{_fmt(entry['witness']['expectation'])}{_fmt(ref['witness_expectation'], 11)}"
            f"{_fmt(entry['witness']['robustness_lower_bound'], 12)}{_fmt(ref['robustness_lower_bound'], 11)}"
            f"{_fmt(entry['three_tangle_upper'])}{_fmt(ref['three_tangle'][label], 11)}"
        )
    print("conditional processes")
    print(f"  {'outcome':<8}{'Fp':>10}{'paper':>11}{'Fbar':>10}{'paper':>11}")
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
    print(f"mean Fbar: {_fmt(mean_fbar, 0).strip()} (paper {ref['mean_average_output_fidelity']})")


def _write(result: dict, out: str, files: dict) -> list[Path]:
    """Stamp the run's timestamp on ``result``, make ``out`` and write each
    ``{file name: serializer}`` of ``files`` there; returns the paths written."""
    result["metadata"]["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text(result))
    return [out / name for name in files]


def command_bench(args: argparse.Namespace) -> int:
    device, s = _build_run_config(args)
    report = run_benchmark(device, s["shots"], s["seed"], s["noise"], s["restarts"])
    writers = {"json": report_json_text, "csv": report_csv_text}
    files = {f"report.{kind}": text for kind, text in writers.items() if s["format"] in (kind, "both")}
    written = _write(report, s["out"], files)
    _print_bench_summary(report)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def command_state(args: argparse.Namespace) -> int:
    device, s = _build_run_config(args)
    if s["format"] != "json":
        raise ConfigError(f"'state' writes only the 'json' format, got {s['format']!r}")
    label = args.input
    result = run_state(device, label, s["shots"], s["seed"], s["noise"], s["restarts"])
    (path,) = _write(result, s["out"], {f"state_{label}.json": report_json_text})
    print(f"input {label}: fidelity {result['state_fidelity']:.4f}")
    if "witness" in result:
        print(
            f"witness expectation {result['witness']['expectation']:.4f}"
            f" (paper {PAPER_REFERENCE['witness_expectation']})"
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
        # Every flag defaults to None, so a flag left out yields to the config file.
        d, noise = _DEFAULTS, "on" if _DEFAULTS["noise"] else "off"
        p.add_argument("--config", metavar="PATH", help="JSON run config")
        p.add_argument("--shots", type=int, help=f"shots per Pauli setting, 0 = analytic (default {d['shots']})")
        p.add_argument("--seed", type=int, help="random seed (required when shots > 0, else default 0)")
        p.add_argument("--noise", choices=("on", "off"), help=f"enable decoherence (default {noise})")
        p.add_argument("--out", metavar="DIR", help=f"output directory (default {d['out']})")
        p.add_argument(
            "--format", choices=_FORMATS, help=f"report format, state: json only (default {d['format']})"
        )
        p.add_argument("--restarts", type=int, help=f"decomposition-search restarts (default {d['restarts']})")

    bench = sub.add_parser("bench", help="run the full benchmark and write report(s)")
    add_common(bench)
    bench.set_defaults(func=command_bench)

    state = sub.add_parser("state", help="reconstruct a single prepared state")
    state.add_argument("input", choices=INPUT_LABELS, help="input-state label")
    add_common(state)
    state.set_defaults(func=command_state)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built on the first call, not at import, and reused after."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
