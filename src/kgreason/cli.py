"""Command-line pipeline: train-kgc -> calibrate -> build-tensor -> gen-queries
-> eval, plus an ablation sweep.

One binary with subcommands. Every command takes --config (flat `key = value`
file whose keys are flag names); explicit flags override config values,
config values override defaults. All randomness comes from --seed. Beside
each artifact a `<artifact>.manifest` records the command, parameters,
outputs, and the digest of each file named by one of the command's input
flags (declared in _COMMANDS), keyed by the flag: `input.train.sha256`.
Where a command writes is checked before it reads any input.

Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags,
out-of-range training settings, missing files, unknown names).

A command imports the modules it runs, and only the invoked command's parser
is built: at module level this file imports the stdlib, numpy and kvio, so a
stage's start-up compiles and runs no module that the stage does not use.

`main` is the in-process API; `entry` is the process entry point of both
`python -m kgreason.cli` and the `kgreason` script. It runs `main`, then
freezes the heap, so the interpreter's exit does not scan it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import logging
import sys
import time
from contextlib import closing
from pathlib import Path

import numpy as np

from . import __version__
from .kvio import SettingError, UsageError, read_kv, write_kv

log = logging.getLogger(__name__)


# config fields whose flag is not `--<field>`
_SETTING_FLAGS = {"batch_size": "--batch", "eps": "--epsilon", "kind": "--model",
                  "reg": "--l3", "aux_weight": "--l1"}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(artifact: Path, command: str, args: argparse.Namespace,
                    artifacts: list[Path]) -> None:
    kv: dict[str, str] = {
        "command": command,
        "tool_version": __version__,
        "created_unix": str(int(time.time())),
    }
    for key, value in sorted(vars(args).items()):
        if key in ("config",):
            continue
        kv[f"param.{key}"] = "" if value is None else str(value)
    for flag in _COMMANDS[command][2]:
        if getattr(args, flag):
            kv[f"input.{flag}.sha256"] = _sha256(getattr(args, flag))
    for i, path in enumerate(artifacts):
        kv[f"artifact.{i}"] = str(path)
    write_kv(str(artifact) + ".manifest", kv)


def _load_graph(args):
    from .graph import add_inverse_relations, load_kg
    kg = load_kg(args.train, args.valid, args.test)
    if not args.no_inverses:
        kg = add_inverse_relations(kg)
    return kg


def _load_calibration(args):
    """The graph, the --model scorer and the --w adaptation matrix (None
    without --w), each checked against the graph's vocabularies."""
    from .calibrate import AdaptationMatrix, NormalizedScorer
    from .scorer import EmbeddingModel
    kg = _load_graph(args)
    shape, w = (kg.n_entities, kg.n_relations), getattr(args, "w", None)
    scorer = NormalizedScorer(EmbeddingModel.load(args.model, shape), kg, alpha=args.alpha)
    return kg, scorer, AdaptationMatrix.load(w, shape) if w else None


def _npz_path(raw: str) -> Path:
    path = Path(raw)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise UsageError, before any input is read, if an output flag names a
    location the command cannot write to."""
    for flag in ("out", "report"):
        if not getattr(args, flag, None):     # an empty --report writes none
            continue
        path = Path(getattr(args, flag))
        if not path.parent.is_dir():
            raise UsageError(f"--{flag} directory {path.parent} does not exist")
        if path.is_dir():
            raise UsageError(f"--{flag} {path} is a directory")
    if getattr(args, "out_dir", None) is not None:
        out_dir = Path(args.out_dir)
        if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
            raise UsageError(f"--out-dir {out_dir} is not a directory")


def _add_graph_flags(parser, require_train: bool = True):
    parser.add_argument("--train", required=require_train, help="train triplet file")
    parser.add_argument("--valid", default=None, help="validation triplet file")
    parser.add_argument("--test", default=None, help="test triplet file")
    parser.add_argument("--no-inverses", action="store_true",
                        help="skip inverse-relation augmentation")


def _add_scorer_flags(parser):
    """The graph flags, the --model checkpoint, --alpha and --epsilon."""
    from .calibrate import DEFAULT_ALPHA, DEFAULT_EPS
    _add_graph_flags(parser)
    parser.add_argument("--model", required=True, help="model checkpoint")
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPS)


def _int_at_least(low: int):
    """An argparse type: an int of at least `low`; argparse names the flag."""
    def parse(raw: str) -> int:
        if int(raw) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw}")
        return int(raw)
    parse.__name__ = "int"      # argparse's word for a value int() rejects
    return parse


def _add_common_flags(parser):
    parser.add_argument("--config", default=None,
                        help="key = value file; flags override its entries")
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    parser.add_argument("--verbose", action="store_true")


def cmd_train_kgc(args) -> int:
    from .scorer import TrainConfig, train
    config = TrainConfig(kind=args.model, dim=args.dim, epochs=args.epochs,
                         batch_size=args.batch, lr=args.lr, reg=args.l3,
                         aux_weight=args.l1, seed=args.seed)
    kg = _load_graph(args)
    model, history = train(kg, config)
    model.save(args.out)
    _write_manifest(args.out, "train-kgc", args, [args.out])
    print(f"trained {args.model} dim={args.dim} on {len(kg.triplets('train'))} triplets; "
          f"final loss {history[-1]:.6f}; saved {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from .calibrate import CalibrationConfig, adapt, adaptation_records
    from .dsl import ADAPTATION_STRUCTURES, read_queries
    config = CalibrationConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch,
                               eps=args.epsilon, seed=args.seed)
    kg, scorer, _ = _load_calibration(args)
    records = read_queries(args.queries, kg.entities, kg.relations)
    usable = adaptation_records(records)
    matrix, history = adapt(scorer, usable, config)
    matrix.save(args.out)
    _write_manifest(args.out, "calibrate", args, [args.out])
    print(f"adapted on {len(usable)} queries ({len(records) - len(usable)} skipped: not "
          f"{'/'.join(ADAPTATION_STRUCTURES)}, or no answers); loss {history[0]:.4f} -> "
          f"{history[-1]:.4f}; saved {args.out}")
    return 0


def cmd_build_tensor(args) -> int:
    from .calibrate import ablation_provider
    from .tensor import build_tensor
    if args.mode != "S12" and not args.w:
        raise UsageError(f"mode {args.mode} needs --w")
    kg, scorer, matrix = _load_calibration(args)
    provider = ablation_provider(args.mode, scorer, matrix, kg, eps=args.epsilon)
    report = build_tensor(provider, eps=args.epsilon, memory_cap=args.memory_cap,
                          out=args.out)
    _write_manifest(Path(args.out), "build-tensor", args, [Path(args.out)])
    print(report)
    return 0


def _parse_structures(raw: str) -> list[str]:
    from .dsl import ADAPTATION_STRUCTURES
    from .harness import STRUCTURE_ORDER
    if raw == "all":
        return list(STRUCTURE_ORDER)
    if raw == "train":
        return list(ADAPTATION_STRUCTURES)
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    for i, name in enumerate(names):
        if name not in STRUCTURE_ORDER:
            raise UsageError(f"unknown structure {name!r}")
        if name in names[:i]:
            raise UsageError(f"--structures names {name!r} twice")
    if not names:
        raise UsageError("no structures given")
    return names


def cmd_gen_queries(args) -> int:
    from .dsl import write_queries
    from .harness import generate_queries
    structures = _parse_structures(args.structures)
    kg = _load_graph(args)
    records = []
    for i, structure in enumerate(structures):
        records.extend(generate_queries(kg, structure, args.count,
                                        seed=args.seed + i, split=args.split))
    write_queries(args.out, records)
    _write_manifest(Path(args.out), "gen-queries", args, [Path(args.out)])
    print(f"wrote {len(records)} queries ({len(structures)} structures) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .dsl import read_queries
    from .harness import evaluate_run
    from .tensor import CalibratedTensor
    tensor = CalibratedTensor.load(args.tensor)
    records = read_queries(args.queries, n_entities=tensor.n_entities,
                           n_relations=tensor.n_relations)
    report = evaluate_run(tensor, records)
    print(report.table())
    print(report.wide_row())
    if args.report:
        write_kv(args.report, report.to_kv())
        _write_manifest(Path(args.report), "eval", args, [Path(args.report)])
    return 0


def cmd_ablate(args) -> int:
    from .calibrate import ABLATION_MODES, ablation_provider, calibrated_blocks
    from .dsl import read_queries
    from .harness import evaluate_run
    from .tensor import stream_tensors
    out_dir = Path(args.out_dir)
    kg, scorer, matrix = _load_calibration(args)
    records = read_queries(args.queries, kg.entities, kg.relations)
    modes = ABLATION_MODES if matrix is not None else ("S12",)
    providers = [ablation_provider(mode, scorer, matrix, kg, eps=args.epsilon) for mode in modes]
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict[str, str] = {}
    with closing(stream_tensors(lambda rids: calibrated_blocks(scorer, rids, providers),
                                len(modes), kg.n_entities, kg.n_relations, args.epsilon,
                                out_dir)) as tensors:
        for mode in modes:
            tensor = next(tensors)      # not through zip, whose tuple would keep the last one
            report = evaluate_run(tensor, records)
            write_kv(out_dir / f"{mode}.report", report.to_kv())
            summary[f"{mode}.avg_p"] = f"{report.avg_p:.6f}"
            summary[f"{mode}.avg_n"] = f"{report.avg_n:.6f}"
            print(f"{mode}: avg_p {report.avg_p:.4f}  avg_n {report.avg_n:.4f}  "
                  f"(nnz {tensor.nnz})")
            del tensor      # released before the next mode is loaded
    for mode in ABLATION_MODES[len(modes):]:
        print(f"{mode}: skipped (no --w)")
    write_kv(out_dir / "ablation.summary", summary)
    _write_manifest(out_dir / "ablation", "ablate", args, [out_dir / "ablation.summary"])
    return 0


def _conf_train(p):
    from .scorer import MODEL_KINDS
    _add_graph_flags(p)
    p.add_argument("--model", default="complex-bilinear", choices=MODEL_KINDS)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l3", type=float, default=1e-3,
                   help="cube regularizer weight")
    p.add_argument("--l1", type=float, default=0.0,
                   help="relation-prediction loss weight")
    p.add_argument("--out", type=_npz_path, required=True)


def _conf_calibrate(p):
    _add_scorer_flags(p)
    p.add_argument("--queries", required=True, help="training query file")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=int, default=1000)
    p.add_argument("--out", type=_npz_path, default="adaptation.npz")


def _conf_build(p):
    from .calibrate import ABLATION_MODES
    _add_scorer_flags(p)
    p.add_argument("--w", default=None, help="adaptation checkpoint")
    p.add_argument("--mode", default="S1234", choices=ABLATION_MODES)
    p.add_argument("--memory-cap", type=_int_at_least(1), default=None,
                   help="abort if the tensor estimate exceeds this many bytes")
    p.add_argument("--out", required=True)


def _conf_gen(p):
    _add_graph_flags(p)
    p.add_argument("--structures", default="all",
                   help="comma list, or 'all', or 'train' "
                        "(the adaptation structures)")
    p.add_argument("--count", type=_int_at_least(1), default=100,
                   help="queries per structure")
    p.add_argument("--split", default="test",
                   choices=("train", "validation", "test"))
    p.add_argument("--out", required=True)


def _conf_eval(p):
    p.add_argument("--tensor", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--report", default=None, help="write metrics here as key = value")


def _conf_ablate(p):
    _add_scorer_flags(p)
    p.add_argument("--w", default=None)
    p.add_argument("--queries", required=True)
    p.add_argument("--out-dir", required=True)


_GRAPH = ("train", "valid", "test")

# name -> (command, adds its flags, the flags naming the files it reads, description)
_COMMANDS = {
    "train-kgc": (cmd_train_kgc, _conf_train, _GRAPH, "Train the link-prediction scorer."),
    "calibrate": (cmd_calibrate, _conf_calibrate, (*_GRAPH, "model", "queries"),
                  "Fit per-(h,r) adaptation scales on training queries."),
    "build-tensor": (cmd_build_tensor, _conf_build, (*_GRAPH, "model", "w"),
                     "Materialize the sparse calibrated tensor."),
    "gen-queries": (cmd_gen_queries, _conf_gen, _GRAPH,
                    "Sample queries with verified easy/hard answer sets."),
    "eval": (cmd_eval, _conf_eval, ("tensor", "queries"),
             "Rank hard answers over a tensor and report MRR/Hits."),
    "ablate": (cmd_ablate, _conf_ablate, (*_GRAPH, "model", "w", "queries"),
               "Evaluate S12/S123/S1234 providers side by side."),
}


def _build_parser(name: str) -> argparse.ArgumentParser:
    _, configure, _, description = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"kgreason {name}", allow_abbrev=False,
                                     description=description)
    _add_common_flags(parser)
    configure(parser)
    return parser


# the words a config file may give a store_true flag
_BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _namespace_from_config(parser: argparse.ArgumentParser, path: str,
                           ) -> argparse.Namespace:
    """Pre-seed a namespace so config values lose to explicit flags only.

    Each key names a flag other than --help and --config; each value is
    converted as its flag's would be (its type, or a boolean word for a
    store_true flag) and must be one of its choices. A value that fails, a
    line without `=`, bytes not UTF-8, a key given twice or two keys of one
    flag (`out-dir`, `out_dir`) is a usage error naming the file.
    """
    try:
        values = read_kv(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    ns = argparse.Namespace()
    keys: dict[str, str] = {}     # dest -> the key that set it
    for key, raw in values.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"{path}: unknown config key {key!r}")
        if action.dest in keys:
            raise UsageError(f"{path}: config keys {keys[action.dest]!r} and {key!r} "
                             f"both set {action.option_strings[0]}")
        keys[action.dest] = key
        try:
            if isinstance(action, argparse._StoreTrueAction):
                value = _BOOLEAN_WORDS[raw.lower()]
            else:
                value = raw if action.type is None else action.type(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(raw)
        except (KeyError, ValueError, argparse.ArgumentTypeError):
            raise UsageError(f"{path}: bad value for {key!r}: {raw!r}") from None
        setattr(ns, action.dest, value)
    return ns


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = "\n  ".join(f"{name:<14}{description}"
                            for name, (*_, description) in _COMMANDS.items())
        print(f"kgreason {__version__}: calibrated fuzzy query answering over KGs\n"
              f"usage: kgreason <command> [flags]\n\ncommands:\n  {names}")
        return 0
    name, rest = argv[0], argv[1:]
    if name not in _COMMANDS:
        print(f"error: unknown command {name!r} (try --help)", file=sys.stderr)
        return 2
    func, parser = _COMMANDS[name][0], _build_parser(name)
    try:
        prescan = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        prescan.add_argument("--config", default=None)
        pre, _ = prescan.parse_known_args(rest)
        namespace = (_namespace_from_config(parser, pre.config)
                     if pre.config else argparse.Namespace())
        for action in parser._actions:
            # a config value satisfies a required flag
            if action.required and hasattr(namespace, action.dest):
                action.required = False
        args = parser.parse_args(rest, namespace=namespace)
        _check_outputs(args)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        np.seterr(over="raise", invalid="raise")
        return func(args)
    except SystemExit as exc:   # argparse exits; keep the int-return contract
        return 2 if exc.code is None else int(exc.code)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SettingError as exc:
        flag = _SETTING_FLAGS.get(exc.field, f"--{exc.field}")
        print(f"error: {flag} {exc.requirement}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1 with a message
        log.debug("failure detail", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """Run `main` on the process's arguments, then move every object left
    alive into the collector's permanent generation, so the cyclic collection
    that the interpreter's exit runs has almost nothing to scan. The exit
    still runs atexit handlers, flushes the standard streams and tears the
    modules down; a cycle left alive is never collected, so no output may
    depend on a finalizer at exit: nothing in kgreason defines `__del__` or
    registers `weakref.finalize` or `atexit`, and every temporary file is
    opened under `with`. Returns main's exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
