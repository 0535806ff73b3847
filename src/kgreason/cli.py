"""Command-line pipeline: ingest -> train-kgc -> calibrate -> build-tensor ->
gen-queries -> eval, plus an ablation sweep.

One binary with subcommands. Every command takes --config (flat `key = value`
file whose keys are flag names); explicit flags override config values,
config values override defaults. All randomness comes from --seed. Beside
each artifact a `<artifact>.manifest` records the command, parameters,
input hashes, and outputs.

Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags,
out-of-range training settings, missing files, unknown names).
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    ABLATION_MODES,
    ADAPTATION_STRUCTURES,
    AdaptationMatrix,
    CalibrationConfig,
    NormalizedScorer,
    ablation_provider,
    adapt,
)
from .dsl import read_queries, write_queries
from .graph import add_inverse_relations, load_kg
from .harness import STRUCTURE_ORDER, evaluate_run, generate_queries
from .kvio import read_kv, write_kv
from .scorer import EmbeddingModel, MODEL_KINDS, SettingError, TrainConfig, train
from .tensor import CalibratedTensor, build_tensor

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation detected after argparse (exit code 2)."""


# config fields whose flag is not `--<field>`
_SETTING_FLAGS = {"batch_size": "--batch", "eps": "--epsilon", "kind": "--model"}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(artifact: Path, command: str, args: argparse.Namespace,
                    inputs: list[Path], artifacts: list[Path]) -> None:
    kv: dict[str, str] = {
        "command": command,
        "tool_version": __version__,
        "created_unix": str(int(time.time())),
    }
    for key, value in sorted(vars(args).items()):
        if key in ("config",):
            continue
        kv[f"param.{key}"] = "" if value is None else str(value)
    for path in inputs:
        if path is not None and Path(path).exists():
            kv[f"input.{Path(path).name}.sha256"] = _sha256(path)
    for i, path in enumerate(artifacts):
        kv[f"artifact.{i}"] = str(path)
    write_kv(str(artifact) + ".manifest", kv)


def _load_graph(args):
    kg = load_kg(args.train, args.valid, args.test)
    if not args.no_inverses:
        kg = add_inverse_relations(kg)
    return kg


def _graph_inputs(args) -> list[Path]:
    return [Path(p) for p in (args.train, args.valid, args.test) if p]


def _load_scorer(args, kg) -> NormalizedScorer:
    """The --model checkpoint, checked against the graph, and its normalizer."""
    model = EmbeddingModel.load(args.model, (kg.n_entities, kg.n_relations))
    return NormalizedScorer(model, kg, alpha=args.alpha)


def _npz_path(raw: str) -> Path:
    path = Path(raw)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _add_graph_flags(parser, require_train: bool = True):
    parser.add_argument("--train", required=require_train, help="train triplet file")
    parser.add_argument("--valid", default=None, help="validation triplet file")
    parser.add_argument("--test", default=None, help="test triplet file")
    parser.add_argument("--no-inverses", action="store_true",
                        help="skip inverse-relation augmentation")


def _add_common_flags(parser):
    parser.add_argument("--config", default=None,
                        help="key = value file; flags override its entries")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")


def cmd_ingest(args) -> int:
    kg = _load_graph(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kg.entities.save(out / "entities.tsv")
    kg.relations.save(out / "relations.tsv")
    artifacts = [out / "entities.tsv", out / "relations.tsv"]
    for split, fname in (("train", "train.txt"), ("validation", "valid.txt"),
                         ("test", "test.txt")):
        path = out / fname
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in kg.triplets(split):
                fh.write(f"{h}\t{r}\t{t}\n")
        artifacts.append(path)
    _write_manifest(out / "ingest", "ingest", args, _graph_inputs(args), artifacts)
    print(f"entities {kg.n_entities}  relations {kg.n_relations}  "
          + "  ".join(f"{s} {len(kg.triplets(s))}" for s in ("train", "validation", "test")))
    return 0


def cmd_train_kgc(args) -> int:
    config = TrainConfig(kind=args.model, dim=args.dim, epochs=args.epochs,
                         batch_size=args.batch, lr=args.lr, reg=args.l3,
                         aux_weight=args.l1, seed=args.seed)
    kg = _load_graph(args)
    model, history = train(kg, config)
    out = _npz_path(args.out)
    model.save(out)
    _write_manifest(out, "train-kgc", args, _graph_inputs(args), [out])
    print(f"trained {args.model} dim={args.dim} on {len(kg.triplets('train'))} triplets; "
          f"final loss {history[-1]:.6f}; saved {out}")
    return 0


def cmd_calibrate(args) -> int:
    if args.mode not in ABLATION_MODES:
        raise UsageError(f"unknown mode {args.mode!r}")
    if args.mode == "S12":
        print("mode S12 uses normalization only; no adaptation matrix to fit")
        return 0
    if not args.queries:
        raise UsageError(f"mode {args.mode} needs --queries")
    config = CalibrationConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch,
                               eps=args.epsilon, seed=args.seed)
    kg = _load_graph(args)
    scorer = _load_scorer(args, kg)
    records = read_queries(args.queries, kg.entities, kg.relations)
    matrix, history = adapt(scorer, records, config)
    out = _npz_path(args.out)
    matrix.save(out)
    inputs = _graph_inputs(args) + [Path(args.model), Path(args.queries)]
    _write_manifest(out, "calibrate", args, inputs, [out])
    print(f"adapted on {len(records)} queries; loss {history[0]:.4f} -> "
          f"{history[-1]:.4f}; saved {out}")
    return 0


def cmd_build_tensor(args) -> int:
    if args.mode not in ABLATION_MODES:
        raise UsageError(f"unknown mode {args.mode!r}")
    kg = _load_graph(args)
    scorer = _load_scorer(args, kg)
    matrix = None
    if args.mode != "S12":
        if not args.w:
            raise UsageError(f"mode {args.mode} needs --w")
        matrix = AdaptationMatrix.load(args.w, (kg.n_entities, kg.n_relations))
    provider = ablation_provider(args.mode, scorer, matrix, kg, eps=args.epsilon)
    tensor = build_tensor(provider, eps=args.epsilon, memory_cap=args.memory_cap)
    tensor.save(args.out)
    inputs = _graph_inputs(args) + [Path(args.model)]
    if args.w:
        inputs.append(Path(args.w))
    _write_manifest(Path(args.out), "build-tensor", args, inputs, [Path(args.out)])
    print(tensor.stats())
    return 0


def _parse_structures(raw: str) -> list[str]:
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
    structures = _parse_structures(args.structures)
    if args.count < 1:
        raise SettingError("count", "must be at least 1")
    kg = _load_graph(args)
    records = []
    for i, structure in enumerate(structures):
        records.extend(generate_queries(kg, structure, args.count,
                                        seed=args.seed + i, split=args.split))
    write_queries(args.out, records)
    _write_manifest(Path(args.out), "gen-queries", args, _graph_inputs(args),
                    [Path(args.out)])
    print(f"wrote {len(records)} queries ({len(structures)} structures) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    tensor = CalibratedTensor.load(args.tensor)
    records = read_queries(args.queries, n_entities=tensor.n_entities,
                           n_relations=tensor.n_relations)
    report = evaluate_run(tensor, records)
    print(report.table())
    print(report.wide_row())
    if args.report:
        write_kv(args.report, report.to_kv())
        _write_manifest(Path(args.report), "eval", args,
                        [Path(args.tensor), Path(args.queries)], [Path(args.report)])
    return 0


def cmd_ablate(args) -> int:
    kg = _load_graph(args)
    scorer = _load_scorer(args, kg)
    matrix = (AdaptationMatrix.load(args.w, (kg.n_entities, kg.n_relations))
              if args.w else None)
    records = read_queries(args.queries, kg.entities, kg.relations)
    out_dir = Path(args.out_dir)
    summary: dict[str, str] = {}
    for mode in ABLATION_MODES:
        if mode != "S12" and matrix is None:
            print(f"{mode}: skipped (no --w)")
            continue
        provider = ablation_provider(mode, scorer, matrix, kg, eps=args.epsilon)
        tensor = build_tensor(provider, eps=args.epsilon)
        report = evaluate_run(tensor, records)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_kv(out_dir / f"{mode}.report", report.to_kv())
        summary[f"{mode}.avg_p"] = f"{report.avg_p:.6f}"
        summary[f"{mode}.avg_n"] = f"{report.avg_n:.6f}"
        print(f"{mode}: avg_p {report.avg_p:.4f}  avg_n {report.avg_n:.4f}  "
              f"(nnz {tensor.nnz})")
    write_kv(out_dir / "ablation.summary", summary)
    inputs = _graph_inputs(args) + [Path(args.model), Path(args.queries)]
    if args.w:
        inputs.append(Path(args.w))
    _write_manifest(out_dir / "ablation", "ablate", args, inputs,
                    [out_dir / "ablation.summary"])
    return 0


def _build_parsers() -> dict[str, tuple[argparse.ArgumentParser, callable]]:
    commands: dict[str, tuple[argparse.ArgumentParser, callable]] = {}

    def register(name, func, configure, description):
        parser = argparse.ArgumentParser(prog=f"kgreason {name}",
                                         description=description)
        _add_common_flags(parser)
        configure(parser)
        commands[name] = (parser, func)

    def conf_ingest(p):
        _add_graph_flags(p)
        p.add_argument("--out-dir", required=True)

    def conf_train(p):
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
        p.add_argument("--out", required=True)

    def conf_calibrate(p):
        _add_graph_flags(p)
        p.add_argument("--model", required=True, help="model checkpoint")
        p.add_argument("--queries", default=None, help="training query file")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--epochs", type=int, default=5)
        p.add_argument("--lr", type=float, default=0.001)
        p.add_argument("--batch", type=int, default=1000)
        p.add_argument("--epsilon", type=float, default=0.0005)
        p.add_argument("--mode", default="S1234", choices=ABLATION_MODES)
        p.add_argument("--out", default="adaptation.npz")

    def conf_build(p):
        _add_graph_flags(p)
        p.add_argument("--model", required=True)
        p.add_argument("--w", default=None, help="adaptation checkpoint")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--epsilon", type=float, default=0.0005)
        p.add_argument("--mode", default="S1234", choices=ABLATION_MODES)
        p.add_argument("--memory-cap", type=int, default=None,
                       help="abort if the tensor estimate exceeds this many bytes")
        p.add_argument("--out", required=True)

    def conf_gen(p):
        _add_graph_flags(p)
        p.add_argument("--structures", default="all",
                       help="comma list, or 'all', or 'train' "
                            "(the adaptation structures)")
        p.add_argument("--count", type=int, default=100, help="queries per structure")
        p.add_argument("--split", default="test",
                       choices=("train", "validation", "test"))
        p.add_argument("--out", required=True)

    def conf_eval(p):
        p.add_argument("--tensor", required=True)
        p.add_argument("--queries", required=True)
        p.add_argument("--report", default=None, help="write metrics here as key = value")

    def conf_ablate(p):
        _add_graph_flags(p)
        p.add_argument("--model", required=True)
        p.add_argument("--w", default=None)
        p.add_argument("--queries", required=True)
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--epsilon", type=float, default=0.0005)
        p.add_argument("--out-dir", required=True)

    register("ingest", cmd_ingest, conf_ingest,
             "Load triplet files, assign ids, dump vocabularies and id triplets.")
    register("train-kgc", cmd_train_kgc, conf_train,
             "Train the link-prediction scorer.")
    register("calibrate", cmd_calibrate, conf_calibrate,
             "Fit per-(h,r) adaptation scales on training queries.")
    register("build-tensor", cmd_build_tensor, conf_build,
             "Materialize the sparse calibrated tensor.")
    register("gen-queries", cmd_gen_queries, conf_gen,
             "Sample queries with verified easy/hard answer sets.")
    register("eval", cmd_eval, conf_eval,
             "Rank hard answers over a tensor and report MRR/Hits.")
    register("ablate", cmd_ablate, conf_ablate,
             "Evaluate S12/S123/S1234 providers side by side.")
    return commands


def _coerce(raw: str, default):
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"bad boolean {raw!r} in config")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _namespace_from_config(parser: argparse.ArgumentParser, path: str,
                           ) -> argparse.Namespace:
    """Pre-seed a namespace so config values lose to explicit flags only."""
    values = read_kv(path)
    defaults = {a.dest: a.default for a in parser._actions}
    ns = argparse.Namespace()
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in defaults:
            raise UsageError(f"{path}: unknown config key {key!r}")
        setattr(ns, dest, _coerce(raw, defaults[dest]))
    return ns


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = _build_parsers()
    if not argv or argv[0] in ("-h", "--help"):
        names = "\n  ".join(f"{name:<14}{p.description}" for name, (p, _) in commands.items())
        print(f"kgreason {__version__}: calibrated fuzzy query answering over KGs\n"
              f"usage: kgreason <command> [flags]\n\ncommands:\n  {names}")
        return 0
    name, rest = argv[0], argv[1:]
    if name not in commands:
        print(f"error: unknown command {name!r} (try --help)", file=sys.stderr)
        return 2
    parser, func = commands[name]
    try:
        prescan = argparse.ArgumentParser(add_help=False)
        prescan.add_argument("--config", default=None)
        pre, _ = prescan.parse_known_args(rest)
        namespace = (_namespace_from_config(parser, pre.config)
                     if pre.config else argparse.Namespace())
        for action in parser._actions:
            # a config value satisfies a required flag
            if action.required and hasattr(namespace, action.dest):
                action.required = False
        args = parser.parse_args(rest, namespace=namespace)
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


if __name__ == "__main__":
    sys.exit(main())
