"""Command-line pipeline: validate / simulate / realize / gold / split / stats / eval.

Subcommands compose through files (JSON, JSON Lines); there is no hidden
state and all randomness derives from --seed, so re-running a command with
the same inputs reproduces its outputs byte for byte.  `main()` runs each subcommand, after
`validate`'s catalog checks if it takes the catalog flags, and writes one manifest of the
run without a timestamp: "<out>.manifest.json", or "split.manifest.json" in --out-dir.

Exit codes: 0 success, 1 validation, input or output error, 2 usage error.

A process started as `python -m shopdialog` or `shopdialog` enters through `run()`: on
exit code 0 (success, `--help`, `--version`) it flushes stdout and stderr and ends without
interpreter teardown, so `atexit` handlers do not run.  `main()` called in-process returns its code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .acts import SPD_MODES, SPLIT_NAMES, TASKS
from .errors import ShopDialogError, ValidationError
from .jsonio import count_records, encode_line, replacing, write_json

# Each subcommand imports the modules it runs when it runs: `eval` loads only
# evalhub, `split` and `stats` the engine's flow reader and evalhub, and
# `validate`, `simulate` and `realize` no evalhub.  A function-level
# `from .engine import read_flows` reads the module's attribute at call time.


def _write_manifest(out_path: Path, args: argparse.Namespace, argv: list[str], outputs: list[str]) -> None:
    manifest = {
        "subcommand": args.command,
        "argv": argv,
        "inputs": {
            k: str(v)
            for k, v in vars(args).items()
            if k in ("scenes", "metadata", "ontology", "policy", "templates", "flows", "pred", "gold")
            and v is not None
        },
        "outputs": outputs,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
    }
    write_json(out_path, manifest, sort_keys=True)


def _catalog(args):
    """(scenes, ontology) from the catalog flags. Every metadata value must sit in the ontology
    value space, otherwise a simulated customer could face a value no concept covers."""
    from .catalog import load_catalog
    from .ontology import load_ontology

    scenes, metadata = load_catalog(args.scenes, args.metadata)
    ont = load_ontology(args.ontology)
    for proto, attrs in metadata.items():
        for attr, value in attrs.items():
            if value not in ont.value_spaces.get(attr, ()):
                raise ValidationError(f"{args.metadata}: {proto}: {attr}={value!r} not covered by the ontology")
    return scenes, ont


def cmd_validate(args):
    from .engine import load_policy
    from .realizer import load_templates

    scenes, ont = _catalog(args)
    if args.policy:
        load_policy(args.policy)
    if args.templates:
        load_templates(args.templates)
    n_items = sum(len(s.items) for s in scenes.values())
    return [], f"OK: {len(scenes)} scenes, {n_items} items, {len(ont.concepts)} concepts"


def cmd_simulate(args):
    from .engine import generate_corpus, load_policy, write_flows

    scenes, ont = _catalog(args)
    cfg = load_policy(args.policy)
    flows = generate_corpus(list(scenes.values()), ont, cfg, args.n, args.seed)
    count = write_flows(flows, args.out)
    return [str(args.out)], f"wrote {count} dialogs to {args.out}"


def cmd_realize(args):
    from .engine import read_flows, write_flows
    from .realizer import load_templates, realize_corpus

    scenes, ont = _catalog(args)
    templates = load_templates(args.templates)
    realized = realize_corpus(read_flows(args.flows), templates, ont, scenes, args.seed)
    count = write_flows(realized, args.out)
    return [str(args.out)], f"realized {count} dialogs to {args.out}"


def cmd_gold(args):
    from .engine import read_flows
    from .evalhub import build_gold, write_predictions

    scenes, ont = _catalog(args)
    task = args.task.upper()
    header = {"task": task, "spd_mode": args.spd_mode} if task == "SPD" else {"task": task}
    rows = build_gold(read_flows(args.flows), ont, scenes, task, args.spd_mode)
    count = write_predictions(args.out, header, rows)
    return [str(args.out)], f"wrote {count} {task} gold rows to {args.out}"


def cmd_split(args):
    from .engine import flow_to_dict, read_flows
    from .evalhub import split_corpus

    n = count_records(args.flows)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise ValidationError(f"ratios must be comma-separated numbers, got {args.ratios!r}") from None
    split_of = split_corpus(n, ratios, args.seed)
    out_dir = Path(args.out_dir)
    outputs = [str(out_dir / f"{name}.jsonl") for name in SPLIT_NAMES]
    # Innermost first. Unlike Path.exists, os.path.exists is False for a name too long to make.
    made = [d for d in (out_dir, *out_dir.parents) if not os.path.exists(d)]
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ShopDialogError(f"cannot write {out_dir}: {exc.strerror}") from exc
        with contextlib.ExitStack() as stack:
            files = {name: stack.enter_context(replacing(path)) for name, path in zip(SPLIT_NAMES, outputs)}
            for (_, flow), name in zip(read_flows(args.flows), split_of):
                files[name].write(encode_line(flow_to_dict(flow)) + "\n")
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):  # mkdir may have failed before making it
                d.rmdir()
        raise
    return outputs, "split sizes: " + ", ".join(f"{name}={split_of.count(name)}" for name in SPLIT_NAMES)


def cmd_stats(args):
    from .engine import read_flows
    from .evalhub import corpus_stats

    try:
        report = corpus_stats(flow for _, flow in read_flows(args.flows))
    except ValidationError as exc:  # a flow file without dialogs
        raise ValidationError(f"{args.flows}: {exc}") from None
    out = Path(args.out)
    write_json(out, report)
    return [str(out)], f"stats for {report['n_dialogs']} dialogs written to {out}"


def cmd_eval(args):
    from .evalhub import (eval_act, eval_recommend, eval_response, eval_set_task,
                          eval_set_task_macro, extract_item_ids, read_predictions)

    task = args.task.upper()
    pred_header, pred_rows = read_predictions(args.pred, task)
    gold_header, gold_rows = read_predictions(args.gold, task)

    report: dict = {"task": task, "n_rounds": len(gold_rows), "tool_version": __version__}
    if task in ("SPD", "RRU"):
        gold = {k: set(v) for k, v in gold_rows.items()}
        if task == "SPD":
            report["spd_mode"] = gold_header.get("spd_mode", SPD_MODES[0])
            pred_mode = pred_header.get("spd_mode", report["spd_mode"])
            if pred_mode != report["spd_mode"]:
                print(f"warning: {args.pred}: spd_mode {pred_mode!r} differs from gold "
                      f"{report['spd_mode']!r}", file=sys.stderr)
        report["micro"] = eval_set_task(pred_rows, gold)
        report["macro"] = eval_set_task_macro(pred_rows, gold)
    elif task == "ACT":
        report.update(eval_act(pred_rows, gold_rows))
    elif task == "RESPONSE":
        try:
            report["bleu4"] = eval_response(pred_rows, gold_rows)
        except ValidationError as exc:  # a gold file without rows
            raise ValidationError(f"{args.gold}: {exc}") from None
    elif task == "RECOMMEND":
        gold = {k: extract_item_ids(v) for k, v in gold_rows.items()}
        report["micro"] = eval_recommend(pred_rows, gold)

    if not args.out:
        return [], json.dumps(report, indent=2, ensure_ascii=False)
    out = Path(args.out)
    write_json(out, report)
    return [str(out)], None


def _count(text: str, least: int = 0) -> int:
    n = int(text)
    if n < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text}")
    return n


def _jobs(text: str) -> int:
    return _count(text, least=1)


_CATALOG_FLAGS = (
    ("--scenes", {"required": True, "help": "scene JSON file"}),
    ("--metadata", {"required": True, "help": "prototype metadata JSON file"}),
    ("--ontology", {"required": True, "help": "ontology JSON file"}),
)
_SEED = ("--seed", {"type": int, "default": 0})
# Every stage runs in one process; --jobs still parses, so that command lines which pass it
# (perfbench's among them) keep working, but nothing reads its value.
_JOBS = ("--jobs", {"type": _jobs, "default": 1, "help": "accepted and ignored; an integer >= 1"})
_FLOWS = ("--flows", {"required": True, "help": "input flow JSONL"})
_OUT = ("--out", {"required": True, "help": "output JSONL path"})
_TASK = ("--task", {"required": True, "choices": [t.lower() for t in TASKS]})

# Per subcommand: help line, function (args -> paths written, line to print), arguments in help order.
SUBCOMMANDS = {
    "validate": ("validate scenes, metadata and ontology", cmd_validate, (
        *_CATALOG_FLAGS,
        ("--policy", {"help": "also validate a policy config"}),
        ("--templates", {"help": "also validate a template file"}))),
    "simulate": ("generate dialog flows by self-play", cmd_simulate, (
        *_CATALOG_FLAGS,
        ("--policy", {"required": True, "help": "policy config JSON"}),
        ("--n", {"type": _count, "required": True, "help": "number of dialogs"}),
        _SEED, _JOBS, _OUT)),
    "realize": ("fill utterances into dialog flows", cmd_realize, (
        *_CATALOG_FLAGS,
        ("--templates", {"required": True, "help": "template JSON file"}),
        _FLOWS, _SEED, _JOBS, _OUT)),
    "gold": ("derive gold annotations from flows", cmd_gold, (
        *_CATALOG_FLAGS, _FLOWS, _TASK,
        ("--spd-mode", {"choices": SPD_MODES, "default": SPD_MODES[0]}),
        _OUT)),
    "split": ("partition a corpus into the four benchmark splits", cmd_split, (
        _FLOWS,
        ("--ratios", {"default": "0.65,0.05,0.15,0.15", "help": "four comma-separated ratios"}),
        _SEED,
        ("--out-dir", {"required": True, "help": "output directory"}))),
    "stats": ("corpus statistics report", cmd_stats, (
        _FLOWS, ("--out", {"required": True, "help": "output report path"}))),
    "eval": ("score a prediction file against gold", cmd_eval, (
        _TASK,
        ("--pred", {"required": True, "help": "prediction JSONL"}),
        ("--gold", {"required": True, "help": "gold JSONL"}),
        ("--out", {"help": "report path (default: print to stdout)"}))),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`. Every subcommand is listed, but only the one `argv` names is
    built, with its arguments; the top level takes no option values, so that one is the first
    word of `argv` that is not an option."""
    parser = argparse.ArgumentParser(
        prog="shopdialog",
        description="Recommendation dialog simulation and benchmark pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)

    def subparser(prog: str, **kwargs) -> argparse.ArgumentParser | None:
        # Parsing reads only the chosen subcommand's parser; listing the others (in help and
        # in the invalid-choice error) needs just their names and help lines.
        return argparse.ArgumentParser(prog, **kwargs) if prog == f"shopdialog {chosen}" else None

    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)
    for name, (help_text, _, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if p is not None:
            for flag, options in arguments:
                p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        outputs, message = SUBCOMMANDS[args.command][1](args)
        if outputs:
            out_dir = getattr(args, "out_dir", None)
            manifest = Path(out_dir, "split.manifest.json") if out_dir else Path(outputs[0] + ".manifest.json")
            _write_manifest(manifest, args, argv, outputs)
    except ShopDialogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if message is not None:
        print(message)
    return 0


def run() -> None:
    """Exit with `main()`'s code. Code 0, from a subcommand or from `--help` or `--version`, ends
    in `os._exit(0)` once the standard streams are flushed: every file is closed by its `with` by
    then, so teardown would only free memory. A reader that closed stdout ends the run with 1
    and no traceback."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's exit: 0 after --help or --version, 2 on a usage error
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps that quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if code:
        sys.exit(code)
    sys.stderr.flush()
    os._exit(0)
