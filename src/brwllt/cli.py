"""Command-line entry point.

Verbs:
    validate   check a config file and report the parsed experiment
    run        execute the experiment described by a config file
    dump-dist  write the exact n-step distribution of the config's law as CSV
    version    print the tool version

The default output directory can be set with the BRWLLT_OUTPUT_DIR
environment variable; an explicit path in the config or on the command
line wins.

A package error (``BrwlltError``) ends the command with one
``brwllt: <message>`` line on stderr and exit code 2.

Configs are loaded by ``brwllt.config``, which needs no numpy: only
``run`` imports the runners (``brwllt.harness``) and only ``dump-dist``
the exact distributions, so ``validate``, ``version`` and a config
refused at load start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import load_config
from .errors import BrwlltError, ConfigError


def _apply_overrides(doc: dict, overrides) -> dict:
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node, parts = doc, key.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict):
                where = ".".join(parts[:i]) or "the config"
                raise ConfigError(f"override {item!r}: {where} is not an object")
            if i < len(parts) - 1:
                node = node.setdefault(part, {})
        node[parts[-1]] = value
    return doc


def _load(path, overrides):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    return load_config(_apply_overrides(doc, overrides))


def _output_path(cfg, explicit):
    if explicit:
        return explicit
    name = cfg.output or f"{cfg.experiment}.csv"
    base = os.environ.get("BRWLLT_OUTPUT_DIR", ".")
    return name if os.path.isabs(name) else os.path.join(base, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="brwllt", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config")
    p_validate.add_argument("--override", action="append", default=[])

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--override", action="append", default=[])
    p_run.add_argument("--output", help="output CSV path")

    p_dump = sub.add_parser("dump-dist", help="dump an exact n-step distribution")
    p_dump.add_argument("config")
    p_dump.add_argument("--n", type=int, required=True)
    p_dump.add_argument("--output", required=True)
    p_dump.add_argument("--override", action="append", default=[])

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.verb == "dump-dist" and args.n < 0:
        p_dump.error(f"--n must be >= 0, got {args.n}")

    if args.verb == "version":
        print(__version__)
        return 0

    try:
        return _run_verb(args)
    except BrwlltError as exc:
        print(f"brwllt: {exc}", file=sys.stderr)
        return 2


def _run_verb(args) -> int:
    cfg = _load(args.config, args.override)

    if args.verb == "validate":
        print(f"experiment: {cfg.experiment}")
        print(f"law: d={cfg.law.d}, zeta0={cfg.law.zeta0}, ranges={cfg.law.ranges}")
        if cfg.offspring is not None:
            print(f"offspring mean: {cfg.offspring.mean}")
        print(f"config hash: {cfg.config_hash}")
        print("ok")
        return 0

    if args.verb == "dump-dist":
        from .exact_dist import dump_csv, walk_dist

        dump_csv(walk_dist(cfg.law, args.n), args.output)
        print(f"wrote {args.output}")
        return 0

    from .harness import run_experiment, write_csv

    result = run_experiment(cfg)
    path = _output_path(cfg, args.output)
    write_csv(cfg, result, path)
    for note in result.notes:
        print(note)
    print(f"wrote {path} ({len(result.rows)} rows); passed={result.passed}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
