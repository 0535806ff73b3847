"""End-to-end command tests. They run in-process through cli.main, except
TestColdStart and TestProcessEntry, which spawn `python -m kgreason.cli`
children."""

import gc
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import kgreason
from kgreason import calibrate, dsl, fuzzy, graph, harness
from kgreason import tensor as tensor_module
from kgreason.calibrate import (DEFAULT_EPS, AdaptationMatrix, NormalizedScorer,
                                ablation_provider)
from kgreason.cli import main
from kgreason.dsl import read_queries
from kgreason.fuzzy import DenseRows
from kgreason.harness import evaluate_run
from kgreason.kvio import read_kv, write_kv
from kgreason.scorer import EmbeddingModel
from kgreason.tensor import CalibratedTensor, build_tensor

from conftest import corrupt_payload, random_kg


@pytest.fixture(autouse=True)
def _restore_seterr():
    saved = np.seterr()
    yield
    np.seterr(**saved)


def write_dataset(root, seed=0, n=30, m=2, edges=170):
    kg = random_kg(np.random.default_rng(seed), n, m, edges)
    paths = {}
    for split, fname in (("train", "train.tsv"), ("validation", "valid.tsv"),
                         ("test", "test.tsv")):
        path = root / fname
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in kg.triplets(split):
                fh.write(f"e{h}\tr{r}\te{t}\n")
        paths[split] = path
    return paths


def graph_flags(paths):
    return ["--train", str(paths["train"]), "--valid", str(paths["validation"]),
            "--test", str(paths["test"])]


class TestDispatch:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("train-kgc", "calibrate", "build-tensor",
                     "gen-queries", "eval", "ablate"):
            assert name in out
        assert "ingest" not in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_ingest_is_an_unknown_command(self, capsys):
        # every stage rebuilds the ids from the triplet files it reads
        assert main(["ingest"]) == 2
        assert "error: unknown command 'ingest'" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["gen-queries"]) == 2

    def test_flags_are_not_abbreviated(self, tmp_path, capsys):
        paths = write_dataset(tmp_path)
        out = tmp_path / "q.txt"
        assert main(["gen-queries", "--train", str(paths["train"]), "--out", str(out),
                     "--no-inv"]) == 2
        assert "unrecognized arguments: --no-inv" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["gen-queries", "--train", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "q.txt")])
        assert code == 2
        assert "missing file" in capsys.readouterr().err


def query_relations(path) -> set[int]:
    """The relation ids that the queries of a query file project along."""
    return {int(r) for r in re.findall(r"P\[#(\d+)\]", Path(path).read_text())}


class TestGraphInputs:
    """The graph flags and the manifest, which every graph-reading stage shares."""

    def test_no_inverses(self, tmp_path):
        paths = write_dataset(tmp_path)
        out = tmp_path / "q.txt"
        for flags, relations in (([], {0, 1, 2, 3}), (["--no-inverses"], {0, 1})):
            assert main(["gen-queries", *graph_flags(paths), *flags, "--structures", "1p",
                         "--count", "8", "--out", str(out)]) == 0
            assert query_relations(out) == relations

    def test_manifest_contents(self, tmp_path):
        paths = write_dataset(tmp_path)
        out = tmp_path / "q.txt"
        assert main(["gen-queries", *graph_flags(paths), "--structures", "1p",
                     "--count", "2", "--out", str(out)]) == 0
        manifest = read_kv(str(out) + ".manifest")
        assert manifest["command"] == "gen-queries"
        assert manifest["param.out"] == str(out)
        assert len(manifest["input.train.sha256"]) == 64
        assert manifest["artifact.0"] == str(out)


class TestConfigPrecedence:
    def test_config_beats_default_flag_beats_config(self, tmp_path):
        paths = write_dataset(tmp_path)
        conf = tmp_path / "train.conf"
        conf.write_text(
            f"train = {paths['train']}\ndim = 6\nepochs = 2\nbatch = 64\n")
        out1 = tmp_path / "m1.npz"
        assert main(["train-kgc", "--config", str(conf), "--out", str(out1)]) == 0
        m1 = read_kv(str(out1) + ".manifest")
        assert m1["param.dim"] == "6"          # config beats default (64)
        assert m1["param.train"] == str(paths["train"])  # satisfies required flag
        out2 = tmp_path / "m2.npz"
        assert main(["train-kgc", "--config", str(conf), "--dim", "4",
                     "--out", str(out2)]) == 0
        assert read_kv(str(out2) + ".manifest")["param.dim"] == "4"

    def test_unknown_config_key(self, tmp_path, capsys):
        paths = write_dataset(tmp_path)
        conf = tmp_path / "bad.conf"
        conf.write_text("dims = 6\n")
        code = main(["train-kgc", "--config", str(conf),
                     "--train", str(paths["train"]), "--out", "x.npz"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_a_key_given_twice_is_a_usage_error(self, tmp_path, capsys):
        # the input files do not exist: the file is rejected before any is read
        conf = tmp_path / "twice.conf"
        conf.write_text("epochs = 3\ndim = 6\nepochs = 4\n")
        out = tmp_path / "m.npz"
        code = main(["train-kgc", "--config", str(conf),
                     "--train", str(tmp_path / "missing"), "--out", str(out)])
        assert code == 2
        assert f"error: {conf}:3: key 'epochs' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_two_keys_of_one_flag_are_a_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "ablate.conf"
        conf.write_text(f"out-dir = {tmp_path / 'a'}\nout_dir = {tmp_path / 'b'}\n")
        missing = str(tmp_path / "missing")
        code = main(["ablate", "--config", str(conf), "--train", missing,
                     "--model", missing, "--queries", missing])
        assert code == 2
        assert (f"error: {conf}: config keys 'out-dir' and 'out_dir' both set --out-dir"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ablate.conf"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The full artifact chain once per module; commands under test reuse it."""
    root = tmp_path_factory.mktemp("pipe")
    paths = write_dataset(root)
    flags = graph_flags(paths)
    model = root / "model.npz"
    code = main(["train-kgc", *flags, "--dim", "8", "--epochs", "4",
                 "--batch", "64", "--out", str(model)])
    assert code == 0
    train_q = root / "train-queries.txt"
    code = main(["gen-queries", *flags, "--structures", "train", "--count", "6",
                 "--split", "train", "--out", str(train_q)])
    assert code == 0
    w = root / "w.npz"
    code = main(["calibrate", *flags, "--model", str(model), "--queries",
                 str(train_q), "--lr", "0.01", "--batch", "8", "--out", str(w)])
    assert code == 0
    tensor = root / "full.kgt"
    code = main(["build-tensor", *flags, "--model", str(model), "--w", str(w),
                 "--mode", "S1234", "--epsilon", "0.001", "--out", str(tensor)])
    assert code == 0
    test_q = root / "test-queries.txt"
    code = main(["gen-queries", *flags, "--structures", "1p,2i,2u,2in",
                 "--count", "4", "--out", str(test_q)])
    assert code == 0
    return {"root": root, "flags": flags, "model": model, "w": w,
            "tensor": tensor, "train_q": train_q, "test_q": test_q}


class TestPipeline:
    def test_artifacts_exist_with_manifests(self, pipeline):
        for key in ("model", "w", "tensor", "train_q", "test_q"):
            path = pipeline[key]
            assert path.exists()
            assert path.with_name(path.name + ".manifest").exists()

    def test_tensor_loads_and_has_pinless_content(self, pipeline):
        tensor = CalibratedTensor.load(pipeline["tensor"])
        assert tensor.nnz > 0
        assert tensor.eps == 0.001

    def test_generated_queries_parse(self, pipeline):
        records = read_queries(pipeline["test_q"])
        assert len(records) == 16
        structures = {rec.structure for rec in records}
        assert structures == {"1p", "2i", "2u", "2in"}
        assert all(rec.hard for rec in records)

    def test_gen_queries_deterministic(self, pipeline, tmp_path):
        again = tmp_path / "again.txt"
        code = main(["gen-queries", *pipeline["flags"], "--structures",
                     "1p,2i,2u,2in", "--count", "4", "--out", str(again)])
        assert code == 0
        assert again.read_bytes() == pipeline["test_q"].read_bytes()

    def test_eval_writes_report(self, pipeline, tmp_path, capsys):
        report_path = tmp_path / "metrics.report"
        code = main(["eval", "--tensor", str(pipeline["tensor"]), "--queries",
                     str(pipeline["test_q"]), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "structure" in out and "avg_p" in out
        report = read_kv(report_path)
        assert 0.0 <= float(report["avg_p"]) <= 1.0
        assert "1p.mrr" in report and "2in.hits@10" in report

    def test_eval_missing_tensor(self, pipeline, tmp_path, capsys):
        code = main(["eval", "--tensor", str(tmp_path / "none.kgt"),
                     "--queries", str(pipeline["test_q"])])
        assert code == 2

    @pytest.mark.parametrize("field,value,message", [
        ("indices", 99, "out of range"), ("values", np.nan, "finite")])
    def test_eval_corrupt_tensor(self, pipeline, tmp_path, capsys, field, value, message):
        tensor = CalibratedTensor.load(pipeline["tensor"])
        bad = tmp_path / "bad.kgt"
        tensor.save(bad)
        corrupt_payload(bad, tensor, field, 0, value)
        code = main(["eval", "--tensor", str(bad), "--queries", str(pipeline["test_q"])])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_eval_and_ablate_read_only_the_tensor_csr(self, pipeline, tmp_path, monkeypatch,
                                                       capsys):
        def refuse(*args):
            raise AssertionError("rows were read through row()")

        monkeypatch.setattr(fuzzy, "row_csr", refuse)
        with pytest.raises(AssertionError):             # a lazy provider's gather needs it
            next(fuzzy.gather_chunks(DenseRows(np.ones((2, 1, 2))), np.array([0]), 0))
        assert main(["eval", "--tensor", str(pipeline["tensor"]),
                     "--queries", str(pipeline["test_q"])]) == 0
        assert main(stage_args("ablate", pipeline, tmp_path)) == 0
        assert "error" not in capsys.readouterr().err

    def test_build_tensor_s12_needs_no_w(self, pipeline, tmp_path):
        out = tmp_path / "s12.kgt"
        code = main(["build-tensor", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--mode", "S12",
                     "--epsilon", "0.001", "--out", str(out)])
        assert code == 0
        assert CalibratedTensor.load(out).nnz > 0

    def test_build_tensor_s123_requires_w(self, pipeline, tmp_path, capsys):
        code = main(["build-tensor", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--mode", "S123",
                     "--out", str(tmp_path / "x.kgt")])
        assert code == 2
        assert "needs --w" in capsys.readouterr().err

    def test_build_tensor_memory_cap(self, pipeline, tmp_path, capsys):
        code = main(["build-tensor", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--w", str(pipeline["w"]),
                     "--memory-cap", "64", "--epsilon", "0.0001",
                     "--out", str(tmp_path / "x.kgt")])
        assert code == 1
        assert "memory cap" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True])
    def test_build_tensor_abort_leaves_the_directory_as_it_was(self, pipeline, tmp_path,
                                                                capsys, monkeypatch, existing):
        # blocks of 8 rows, and a cap of half the tensor: blocks are written before the abort
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 8 * 30)
        cap = CalibratedTensor.load(pipeline["tensor"]).stats().estimated_bytes // 2
        out = tmp_path / "x.kgt"
        if existing:
            out.write_bytes(pipeline["tensor"].read_bytes())
        code = main(["build-tensor", *pipeline["flags"], "--model", str(pipeline["model"]),
                     "--w", str(pipeline["w"]), "--memory-cap", str(cap),
                     "--epsilon", "0.001", "--out", str(out)])
        assert code == 1
        assert f"exceeds memory cap {cap}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (["x.kgt"] if existing else [])
        if existing:
            assert out.read_bytes() == pipeline["tensor"].read_bytes()

    def test_build_tensor_out_in_a_missing_directory(self, pipeline, tmp_path, capsys,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("rows were scored")

        monkeypatch.setattr(EmbeddingModel, "score_rows", refuse)
        code = main(["build-tensor", *pipeline["flags"], "--model", str(pipeline["model"]),
                     "--mode", "S12", "--out", str(tmp_path / "missing" / "x.kgt")])
        assert code == 2
        assert f"--out directory {tmp_path / 'missing'} does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_calibrate_has_no_mode_flag(self, pipeline, tmp_path, capsys):
        # every mode fitted the same theta; nor is --mode read as --model
        args = stage_args("calibrate", pipeline, tmp_path)
        for argv in (args + ["--mode", "S123"], args[:1] + ["--mode", "S123"] + args[1:]):
            assert main(argv) == 2
            assert "unrecognized arguments: --mode S123" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_calibrate_mode_config_key_is_unknown(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "calibrate.conf"
        conf.write_text("mode = S12\n")
        args = stage_args("calibrate", pipeline, tmp_path) + ["--config", str(conf)]
        assert main(args) == 2
        assert f"error: {conf}: unknown config key 'mode'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_calibrate_reports_the_queries_it_fitted_on(self, pipeline, tmp_path, capsys):
        # 2p is no adaptation structure: a file of 1p and 2p queries fits the
        # theta of its 1p queries alone, and says so
        thetas = []
        for structures in ("1p,2p", "1p"):
            queries, w = tmp_path / f"{structures}.queries", tmp_path / f"{structures}.npz"
            assert main(["gen-queries", *pipeline["flags"], "--structures", structures,
                         "--count", "5", "--split", "train", "--out", str(queries)]) == 0
            capsys.readouterr()
            assert main(["calibrate", *pipeline["flags"], "--model", str(pipeline["model"]),
                         "--queries", str(queries), "--lr", "0.05", "--batch", "2",
                         "--out", str(w)]) == 0
            thetas.append(AdaptationMatrix.load(w).theta)
            out = capsys.readouterr().out
            skipped = 5 if structures == "1p,2p" else 0
            assert out.startswith(f"adapted on 5 queries ({skipped} skipped: "
                                  "not 1p/2i/3i/2in/3in, or no answers); loss ")
        assert np.abs(thetas[0]).max() > 0
        assert thetas[0].tobytes() == thetas[1].tobytes()

    def test_calibrate_needs_queries(self, pipeline, capsys):
        code = main(["calibrate", *pipeline["flags"], "--model",
                     str(pipeline["model"])])
        assert code == 2
        assert "--queries" in capsys.readouterr().err

    def test_gen_queries_unknown_structure(self, pipeline, tmp_path, capsys):
        code = main(["gen-queries", *pipeline["flags"], "--structures", "9p",
                     "--out", str(tmp_path / "q.txt")])
        assert code == 2
        assert "unknown structure" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gen_queries_count_below_one(self, pipeline, tmp_path, capsys, count):
        out = tmp_path / "q.txt"
        code = main(["gen-queries", *pipeline["flags"], "--structures", "1p",
                     "--count", count, "--out", str(out)])
        assert code == 2
        assert f"argument --count: must be at least 1, got {count}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gen_queries_repeated_structure(self, pipeline, tmp_path, capsys):
        code = main(["gen-queries", *pipeline["flags"], "--structures", "1p,2i,1p",
                     "--count", "3", "--out", str(tmp_path / "q.txt")])
        assert code == 2
        assert "error: --structures names '1p' twice" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_ablate_writes_per_mode_reports(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        code = main(["ablate", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--w", str(pipeline["w"]),
                     "--queries", str(pipeline["test_q"]),
                     "--epsilon", "0.001", "--out-dir", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        summary = read_kv(out_dir / "ablation.summary")
        for mode in ("S12", "S123", "S1234"):
            assert (out_dir / f"{mode}.report").exists()
            assert f"{mode}.avg_p" in summary
            assert mode in printed
        assert (out_dir / "ablation.manifest").exists()

    def test_ablate_without_w_covers_s12_only(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        code = main(["ablate", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--queries", str(pipeline["test_q"]),
                     "--epsilon", "0.001", "--out-dir", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "S123: skipped" in printed and "S1234: skipped" in printed
        summary = read_kv(out_dir / "ablation.summary")
        assert set(summary) == {"S12.avg_p", "S12.avg_n"}

    def test_ablate_lowers_each_query_once(self, pipeline, tmp_path, monkeypatch):
        # one record without hard answers, which no mode evaluates
        queries = tmp_path / "ablate.queries"
        queries.write_text(pipeline["test_q"].read_text() + "P[#0](#1)\t2\t\n")
        ranked = [rec.ast for rec in read_queries(queries) if rec.hard]
        assert 0 < len(ranked) < len(read_queries(queries))
        lowered = []
        real = dsl.query_shape
        monkeypatch.setattr(dsl, "query_shape", lambda node: lowered.append(node) or real(node))
        records = read_queries(queries)
        # reading lowers each skeleton's first line and its probe, and fills in
        # every record's lowering
        skeletons = {re.sub(r"#\d+", "#", line.split("\t")[0])
                     for line in queries.read_text().splitlines()}
        assert len(lowered) == 2 * len(skeletons) < len(ranked)
        assert all(rec.lowered == real(rec.ast) for rec in records)
        by_reading, lowered[:] = lowered[:], []
        args = stage_args("ablate", pipeline, tmp_path)
        args[args.index("--queries") + 1] = str(queries)
        assert main(args) == 0
        assert set(read_kv(tmp_path / "out" / "ablation.summary")) == {
            f"{mode}.{avg}" for mode in ("S12", "S123", "S1234") for avg in ("avg_p", "avg_n")}
        assert lowered == by_reading    # while reading, not once per mode

    @pytest.mark.parametrize("with_w", [True, False])
    def test_ablate_reports_equal_per_mode_builds(self, pipeline, tmp_path, monkeypatch,
                                                  with_w):
        # blocks of 2 rows: the one pass runs 60 blocks
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 2 * 30)
        args = stage_args("ablate", pipeline, tmp_path)
        if not with_w:
            del args[args.index("--w"):args.index("--w") + 2]
        assert main(args) == 0
        root = pipeline["root"]
        kg = graph.add_inverse_relations(graph.load_kg(
            root / "train.tsv", root / "valid.tsv", root / "test.tsv"))
        assert kg.n_entities * kg.n_relations // tensor_module.block_rows(kg.n_entities) >= 40
        scorer = NormalizedScorer(EmbeddingModel.load(pipeline["model"]), kg)
        matrix = AdaptationMatrix.load(pipeline["w"])
        records = read_queries(pipeline["test_q"], kg.entities, kg.relations)
        modes = ("S12", "S123", "S1234") if with_w else ("S12",)
        for mode in modes:
            provider = ablation_provider(mode, scorer, matrix, kg, eps=DEFAULT_EPS)
            write_kv(tmp_path / mode, evaluate_run(build_tensor(provider, DEFAULT_EPS),
                                                   records).to_kv())
            assert (tmp_path / "out" / f"{mode}.report").read_bytes() == (
                tmp_path / mode).read_bytes()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            [f"{mode}.report" for mode in modes] + ["ablation.summary", "ablation.manifest"])

    @pytest.mark.parametrize("where", ["pass", "evaluation"])
    def test_ablate_failure_in_the_second_mode_leaves_no_tensor_file(
            self, pipeline, tmp_path, monkeypatch, capsys, where):
        opened = []
        real_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda **kw: opened.append(real_file(**kw)) or opened[-1])
        calls = []
        if where == "pass":     # S123's rows of the fourth block
            real = calibrate.finish_block

            def finish(scorer, rids, block, theta=None, pin_keys=None):
                calls.append(1)
                if len(calls) == 3 * 3 + 2:
                    raise RuntimeError("injected")
                return real(scorer, rids, block, theta, pin_keys)

            monkeypatch.setattr(calibrate, "finish_block", finish)
        else:
            real = harness.evaluate_run

            def evaluate(*args):
                calls.append(1)
                if len(calls) == 2:
                    raise RuntimeError("injected")
                return real(*args)

            monkeypatch.setattr(harness, "evaluate_run", evaluate)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 2 * 30)
        assert main(stage_args("ablate", pipeline, tmp_path)) == 1
        assert "error: injected" in capsys.readouterr().err
        # three tensor files and, in the pass, their three spools; all closed
        assert len(opened) == 6 and all(fh.closed for fh in opened)
        assert [p.name for p in (tmp_path / "out").iterdir()] == (
            [] if where == "pass" else ["S12.report"])

    @pytest.mark.parametrize("name", ["file", "file/sub"])
    def test_ablate_out_dir_that_is_not_a_directory(self, pipeline, tmp_path, monkeypatch,
                                                    capsys, name):
        def refuse(*args):
            raise AssertionError("the graph was loaded")

        monkeypatch.setattr(graph, "load_kg", refuse)
        (tmp_path / "file").write_text("kept\n")
        args = stage_args("ablate", pipeline, tmp_path)
        args[args.index("--out-dir") + 1] = str(tmp_path / name)
        assert main(args) == 2
        assert (f"error: --out-dir {tmp_path / name} is not a directory"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_train_kgc_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "model2.npz"
        code = main(["train-kgc", *pipeline["flags"], "--dim", "8", "--epochs",
                     "4", "--batch", "64", "--out", str(out)])
        assert code == 0
        with np.load(pipeline["model"]) as a, np.load(out) as b:
            assert np.array_equal(a["E"], b["E"])
            assert np.array_equal(a["R"], b["R"])


def stage_args(command, pipeline, tmp_path, model=None, w=None):
    """Arguments of calibrate, build-tensor, eval or ablate on the pipeline's
    files, writing under tmp_path / "out"."""
    if command == "eval":
        return ["eval", "--tensor", str(pipeline["tensor"]), "--queries", str(pipeline["test_q"])]
    args = [command, *pipeline["flags"], "--model", str(model or pipeline["model"])]
    out = tmp_path / "out"
    if command == "calibrate":
        return args + ["--queries", str(pipeline["train_q"]), "--out", str(out)]
    args += ["--w", str(w or pipeline["w"])]
    if command == "build-tensor":
        return args + ["--out", str(out)]
    return args + ["--queries", str(pipeline["test_q"]), "--out-dir", str(out)]


# the flag of each command's output
OUTPUT_FLAGS = {"train-kgc": "--out", "calibrate": "--out", "build-tensor": "--out",
                "gen-queries": "--out", "eval": "--report", "ablate": "--out-dir"}


def writing_to(command, pipeline, tmp_path, path):
    """Arguments of `command` on the pipeline's files, its output flag naming path."""
    if command in ("train-kgc", "gen-queries"):
        return [command, *pipeline["flags"], "--out", str(path)]
    args = stage_args(command, pipeline, tmp_path)
    if command == "eval":
        return args + ["--report", str(path)]
    args[args.index(OUTPUT_FLAGS[command]) + 1] = str(path)
    return args


@pytest.fixture
def refuse_inputs(monkeypatch):
    """Reading the graph, a checkpoint, a query file or a tensor fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(graph, "load_kg", refuse)
    monkeypatch.setattr(dsl, "read_queries", refuse)
    monkeypatch.setattr(EmbeddingModel, "load", refuse)
    monkeypatch.setattr(CalibratedTensor, "load", refuse)


class TestDeclaredFiles:
    """Each command's output location is checked before any input is read,
    and its manifest holds one digest per input flag given."""

    @pytest.mark.parametrize("command", list(OUTPUT_FLAGS))
    def test_output_in_a_missing_directory(self, pipeline, tmp_path, capsys, refuse_inputs,
                                           command):
        flag = OUTPUT_FLAGS[command]
        if command == "ablate":     # a missing --out-dir is made; one under a file cannot be
            (tmp_path / "file").write_text("kept\n")
            target = tmp_path / "file" / "out"
            message = f"error: --out-dir {target} is not a directory"
        else:
            target = tmp_path / "missing" / "out.npz"
            message = f"error: {flag} directory {target.parent} does not exist"
        assert main(writing_to(command, pipeline, tmp_path, target)) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (["file"] if command == "ablate" else [])

    @pytest.mark.parametrize("command", [c for c in OUTPUT_FLAGS if c != "ablate"])
    def test_output_that_is_a_directory(self, pipeline, tmp_path, capsys, refuse_inputs,
                                        command):
        target = tmp_path / "taken.npz"
        target.mkdir()
        assert main(writing_to(command, pipeline, tmp_path, target)) == 2
        assert f"error: {OUTPUT_FLAGS[command]} {target} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [target] and not list(target.iterdir())

    def test_output_from_a_config_file_is_checked(self, pipeline, tmp_path, capsys,
                                                  refuse_inputs):
        conf = tmp_path / "gen.conf"
        conf.write_text(f"out = {tmp_path / 'missing' / 'q.txt'}\n")
        assert main(["gen-queries", *pipeline["flags"], "--config", str(conf)]) == 2
        assert (f"error: --out directory {tmp_path / 'missing'} does not exist"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [conf]

    def test_same_basename_inputs_keep_both_digests(self, tmp_path):
        paths = write_dataset(tmp_path)
        files = {"train": tmp_path / "a" / "x.tsv", "valid": tmp_path / "b" / "x.tsv"}
        for flag, split in (("train", "train"), ("valid", "validation")):
            files[flag].parent.mkdir()
            files[flag].write_bytes(paths[split].read_bytes())
        out = tmp_path / "m.npz"
        assert main(["train-kgc", "--train", str(files["train"]), "--valid",
                     str(files["valid"]), "--dim", "4", "--epochs", "1", "--out", str(out)]) == 0
        manifest = read_kv(str(out) + ".manifest")
        assert {key for key in manifest if key.startswith("input.")} == {
            "input.train.sha256", "input.valid.sha256"}
        for flag, path in files.items():
            assert manifest[f"input.{flag}.sha256"] == hashlib.sha256(
                path.read_bytes()).hexdigest()
        assert manifest["input.train.sha256"] != manifest["input.valid.sha256"]

    @pytest.mark.parametrize("command,dropped,extra,inputs", [
        ("train-kgc", ["--test"], ["--dim", "4", "--epochs", "1"], {"train", "valid"}),
        ("gen-queries", [], ["--structures", "1p", "--count", "2"], {"train", "valid", "test"}),
        ("calibrate", [], [], {"train", "valid", "test", "model", "queries"}),
        ("build-tensor", ["--w"], ["--mode", "S12"], {"train", "valid", "test", "model"}),
        ("build-tensor", [], [], {"train", "valid", "test", "model", "w"}),
        ("eval", [], [], {"tensor", "queries"}),
        ("ablate", ["--w"], [], {"train", "valid", "test", "model", "queries"})],
        ids=["train-kgc", "gen-queries", "calibrate", "build-tensor-S12", "build-tensor",
             "eval", "ablate"])
    def test_input_keys_are_the_input_flags_given(self, pipeline, tmp_path, command, dropped,
                                                  extra, inputs):
        out = tmp_path / "out.npz"
        args = writing_to(command, pipeline, tmp_path, out)
        for flag in dropped:
            del args[args.index(flag):args.index(flag) + 2]
        assert main(args + extra) == 0
        manifest = read_kv(out / "ablation.manifest" if command == "ablate"
                           else f"{out}.manifest")
        assert {key for key in manifest if key.startswith("input.")} == {
            f"input.{flag}.sha256" for flag in inputs}
        for flag in inputs:
            assert manifest[f"input.{flag}.sha256"] == hashlib.sha256(
                Path(manifest[f"param.{flag}"]).read_bytes()).hexdigest()


class TestTrainingSettings:
    """Out-of-range settings exit 2, name the flag and write nothing."""

    @pytest.mark.parametrize("flag,value,message", [
        ("--batch", "-3", "at least 1"), ("--batch", "0", "at least 1"),
        ("--epochs", "0", "at least 1"), ("--epochs", "6", "capped at 5"),
        ("--lr", "nan", "finite positive"), ("--lr", "0", "finite positive")])
    def test_calibrate(self, pipeline, tmp_path, capsys, flag, value, message):
        args = stage_args("calibrate", pipeline, tmp_path) + [flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,message", [
        ("--batch", "-5", "at least 1"), ("--batch", "0", "at least 1"),
        ("--epochs", "0", "at least 1"), ("--dim", "0", "positive even"),
        ("--lr", "nan", "finite positive"), ("--l3", "-5", "finite non-negative"),
        ("--l3", "nan", "finite non-negative"), ("--l1", "-1", "finite non-negative")])
    def test_train_kgc(self, pipeline, tmp_path, capsys, flag, value, message):
        out = tmp_path / "model.npz"
        assert main(["train-kgc", *pipeline["flags"], "--dim", "8", "--epochs", "1",
                     flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train-kgc", "calibrate", "gen-queries"])
    def test_negative_seed(self, pipeline, tmp_path, capsys, command, via):
        out = tmp_path / "out"
        args = (stage_args(command, pipeline, tmp_path) if command == "calibrate"
                else [command, *pipeline["flags"], "--out", str(out)])
        conf = tmp_path / "seed.conf"
        if via == "config":
            conf.write_text("seed = -1\n")
        assert main(args + (["--config", str(conf)] if via == "config"
                            else ["--seed", "-1"])) == 2
        err = capsys.readouterr().err
        assert (f"error: {conf}: bad value for 'seed': '-1'" if via == "config"
                else "argument --seed: must be at least 0, got -1") in err
        assert not out.exists()

    def test_train_kgc_divergence_names_epoch_and_settings(self, pipeline, tmp_path, capsys):
        # the CLI makes numpy raise on overflow, inside the first batch
        out = tmp_path / "model.npz"
        assert main(["train-kgc", *pipeline["flags"], "--dim", "8", "--epochs", "2",
                     "--lr", "1e160", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: non-finite training loss at epoch 0 "
                       "(kind=complex-bilinear, lr=1e+160, reg=0.001)\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["calibrate", "build-tensor", "ablate"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", "0", "finite positive"), ("--alpha", "nan", "finite positive"),
        ("--epsilon", "1.5", "[0, 1)")])
    def test_calibration_flags(self, pipeline, tmp_path, capsys, command, flag, value,
                               message):
        assert main(stage_args(command, pipeline, tmp_path) + [flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} " in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["calibrate", "build-tensor", "ablate"])
    def test_epsilon_whose_float32_is_one(self, pipeline, tmp_path, capsys, command):
        # below 1, but the tensor keeps entries above float32(eps), which is
        # 1.0 here: the S1234 pins would silently go; calibrate, whose
        # --epsilon the chain shares, refuses it as well
        args = stage_args(command, pipeline, tmp_path) + ["--epsilon", "0.99999999"]
        assert main(args) == 2
        assert ("error: --epsilon must lie in [0, 1), and below 1 in float32"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_config_file_value_named_by_its_flag(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "calibrate.conf"
        conf.write_text("batch = -3\n")
        args = stage_args("calibrate", pipeline, tmp_path) + ["--config", str(conf)]
        assert main(args) == 2
        assert "error: --batch must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_model_named_by_its_flag(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("model = foo\n")
        out = tmp_path / "model.npz"
        assert main(["train-kgc", *pipeline["flags"], "--config", str(conf),
                     "--out", str(out)]) == 2
        assert f"error: {conf}: bad value for 'model': 'foo'" in capsys.readouterr().err
        assert not out.exists()


class TestConfigValues:
    """Config values are converted with their flag's own type."""

    @pytest.mark.parametrize("command,line", [
        ("train-kgc", "dim = eight"), ("build-tensor", "epsilon = 0.5x"),
        ("build-tensor", "memory-cap = 1e8"), ("build-tensor", "no-inverses = maybe")])
    def test_bad_value_names_the_file_and_key(self, pipeline, tmp_path, capsys,
                                              command, line):
        key, raw = (tok.strip() for tok in line.split("="))
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "out"
        if command == "train-kgc":
            args = ["train-kgc", *pipeline["flags"], "--out", str(out)]
        else:
            args = stage_args(command, pipeline, tmp_path)
        assert main(args + ["--config", str(conf)]) == 2
        assert f"error: {conf}: bad value for '{key}': '{raw}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,line", [
        ("gen-queries", "split = dev"), ("train-kgc", "model = foo"),
        ("build-tensor", "mode = S99")])
    def test_value_outside_the_choices(self, tmp_path, capsys, command, line):
        # rejected before any input is read: the input files do not exist
        key, raw = (tok.strip() for tok in line.split("="))
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        missing = str(tmp_path / "missing")
        args = [command, "--train", missing, "--out", str(tmp_path / "out")]
        if command == "build-tensor":
            args += ["--model", missing]
        assert main(args + ["--config", str(conf)]) == 2
        assert f"error: {conf}: bad value for '{key}': '{raw}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["help = 1", "config = other.cfg"])
    def test_key_must_name_a_setting_flag(self, pipeline, tmp_path, capsys, line):
        key = line.split("=")[0].strip()
        conf = tmp_path / "gen.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "q.txt"
        assert main(["gen-queries", *pipeline["flags"], "--config", str(conf),
                     "--out", str(out)]) == 2
        assert f"error: {conf}: unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap,code", [(64, 1), (100000000, 0)])
    def test_memory_cap_from_config_acts_as_the_flag(self, pipeline, tmp_path, capsys,
                                                     cap, code):
        conf = tmp_path / "build.conf"
        conf.write_text(f"memory-cap = {cap}\n")
        runs = {}
        for via in ("config", "flag"):
            (tmp_path / via).mkdir()
            args = stage_args("build-tensor", pipeline, tmp_path / via)
            extra = (["--config", str(conf)] if via == "config"
                     else ["--memory-cap", str(cap)])
            assert main(args + extra) == code
            runs[via] = capsys.readouterr()
        if code:
            assert "exceeds memory cap 64" in runs["config"].err
            assert runs["config"].err == runs["flag"].err
        else:
            assert ((tmp_path / "config" / "out").read_bytes()
                    == (tmp_path / "flag" / "out").read_bytes())
            assert read_kv(tmp_path / "config" / "out.manifest")["param.memory_cap"] == str(cap)

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_memory_cap_must_be_positive(self, pipeline, tmp_path, capsys, cap):
        conf = tmp_path / "build.conf"
        conf.write_text(f"memory-cap = {cap}\n")
        args = stage_args("build-tensor", pipeline, tmp_path)
        assert main(args + ["--memory-cap", cap]) == 2
        assert f"argument --memory-cap: must be at least 1, got {cap}" in capsys.readouterr().err
        assert main(args + ["--config", str(conf)]) == 2
        assert (f"error: {conf}: bad value for 'memory-cap': '{cap}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_boolean_words(self, pipeline, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("no-inverses = Yes\n")
        out = tmp_path / "q.txt"
        assert main(["gen-queries", *pipeline["flags"], "--config", str(conf),
                     "--structures", "1p", "--count", "8", "--out", str(out)]) == 0
        assert query_relations(out) == {0, 1}


class TestValidatedInputs:
    """Bad checkpoints and query files exit 1 and name the file (and line)."""

    @pytest.mark.parametrize("theta,message", [
        (np.zeros((35, 4)), "shape"), (np.zeros((25, 4)), "shape"),
        (np.full((30, 4), np.nan), "finite")])
    @pytest.mark.parametrize("command", ["build-tensor", "ablate"])
    def test_bad_adaptation_checkpoint(self, pipeline, tmp_path, capsys, command,
                                       theta, message):
        bad = tmp_path / "bad-w.npz"
        np.savez(bad, version=np.array(1), theta=theta)
        args = [command, *pipeline["flags"], "--model", str(pipeline["model"]),
                "--w", str(bad)]
        if command == "build-tensor":
            args += ["--out", str(tmp_path / "x.kgt")]
        else:
            args += ["--queries", str(pipeline["test_q"]),
                     "--out-dir", str(tmp_path / "ablation")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
        assert not (tmp_path / "x.kgt").exists()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_narrow_adaptation_checkpoint_is_widened(self, pipeline, tmp_path, dtype):
        # the file's dtype never picks the adaptation arithmetic: a narrow theta
        # builds the tensor of its exact float64 widening, and exp(12) does
        # not overflow a float16 theta
        theta = np.random.default_rng(0).normal(size=(30, 4)).astype(dtype)
        theta[0, 0] = 12.0
        for name, stored in (("narrow", theta), ("wide", theta.astype(np.float64))):
            np.savez(tmp_path / f"{name}.npz", version=np.array(1), theta=stored)
            (tmp_path / name).mkdir()
            assert main(stage_args("build-tensor", pipeline, tmp_path / name,
                                   w=tmp_path / f"{name}.npz")) == 0
        assert ((tmp_path / "narrow" / "out").read_bytes()
                == (tmp_path / "wide" / "out").read_bytes())

    @pytest.mark.parametrize("command", ["calibrate", "build-tensor", "ablate"])
    def test_model_of_another_graph(self, pipeline, tmp_path, capsys, command):
        other = tmp_path / "other-model.npz"
        EmbeddingModel.create("complex-bilinear", 25, 4, 8,
                              np.random.default_rng(0)).save(other)
        assert main(stage_args(command, pipeline, tmp_path, model=other)) == 1
        err = capsys.readouterr().err
        assert f"{other}: model tables" in err and "do not match" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,message", [
        (dict(R=np.full((4, 8), np.nan)), "model R has non-finite values"),
        (dict(R=np.zeros((4, 6))), "model R has width 6; complex-bilinear at dim 8 needs 8"),
        (dict(kind=np.array("foo")), "unknown model kind 'foo'"),
        (dict(dim=np.array(6)), "model E has width 8; complex-bilinear at dim 6 needs 6")])
    @pytest.mark.parametrize("command", ["calibrate", "build-tensor", "ablate"])
    def test_bad_model_checkpoint(self, pipeline, tmp_path, capsys, command, change,
                                  message):
        with np.load(pipeline["model"]) as data:
            arrays = dict(data)
        bad = tmp_path / "bad-model.npz"
        np.savez(bad, **{**arrays, **change})
        assert main(stage_args(command, pipeline, tmp_path, model=bad)) == 1
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build-tensor", "ablate"])
    def test_adaptation_checkpoint_without_theta(self, pipeline, tmp_path, capsys,
                                                 command):
        bad = tmp_path / "no-theta.npz"
        np.savez(bad, version=np.array(1), W=np.ones((30, 4)))
        assert main(stage_args(command, pipeline, tmp_path, w=bad)) == 1
        err = capsys.readouterr().err
        assert f"{bad}: adaptation checkpoint has no theta" in err

    @pytest.mark.parametrize("line,message", [
        ("P[#99](#29)\t\t1", "relation id 99 out of range (size 4)"),
        ("P[#0](#30)\t\t1", "entity id 30 out of range (size 30)"),
        ("P[#0](#1)\t2\t153", "answer id 153 out of range (size 30)"),
        ("P[#0](#1)\t30\t2", "answer id 30 out of range (size 30)")])
    def test_eval_names_the_bad_query(self, pipeline, tmp_path, capsys, line, message):
        queries = tmp_path / "bad.queries"
        queries.write_text(f"P[#0](#1)\t\t2\n{line}\n")
        code = main(["eval", "--tensor", str(pipeline["tensor"]),
                     "--queries", str(queries)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{queries}:2: " in err and message in err

    def test_bad_utf8_query_file(self, pipeline, tmp_path, capsys):
        queries = tmp_path / "bad.queries"
        queries.write_bytes(b"P[#0](#1)\t\t2\nP[#0](#1)\t\t2\xa9\n")
        code = main(["eval", "--tensor", str(pipeline["tensor"]),
                     "--queries", str(queries)])
        assert code == 1
        assert f"error: {queries}:2: not valid UTF-8" in capsys.readouterr().err

    def test_bad_utf8_triplet_file(self, pipeline, tmp_path, capsys):
        lines = pipeline["root"].joinpath("train.tsv").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "train.tsv"
        bad.write_bytes(b"".join(lines[:2] + [b"\xa9" + lines[2]] + lines[3:]))
        out = tmp_path / "q.txt"
        code = main(["gen-queries", "--train", str(bad), "--structures", "1p",
                     "--count", "2", "--split", "train", "--out", str(out)])
        assert code == 1
        assert f"error: {bad}:3: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_utf8_config_file(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_bytes(b"dim = 6\n# caf\xe9\nepochs = 1\n")
        out = tmp_path / "model.npz"
        code = main(["train-kgc", *pipeline["flags"], "--config", str(conf),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {conf}:2: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_config_line_without_equals_is_a_usage_error(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("dim = 6\nepochs 1\n")
        out = tmp_path / "model.npz"
        code = main(["train-kgc", *pipeline["flags"], "--config", str(conf),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {conf}:2: expected 'key = value', got 'epochs 1'" in capsys.readouterr().err
        assert not out.exists()


def child_env() -> dict[str, str]:
    """The environment of a child process that imports the package this
    process imported."""
    src = str(Path(kgreason.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_child(args) -> subprocess.CompletedProcess:
    """A `python <args>` child of the package this process imported."""
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=120)


def child_imports(args) -> set[str]:
    """The modules a `python -X importtime` child imports, by dotted name;
    `args` follows the interpreter's flags."""
    proc = run_child(["-X", "importtime", *args])
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


HELP_MODULES = {"cli", "kvio"}
TRAIN_MODULES = HELP_MODULES | {"graph", "scorer"}
BUILD_MODULES = TRAIN_MODULES | {"calibrate", "tensor"}
ALL_MODULES = BUILD_MODULES | {"dsl", "fuzzy", "harness"}    # every module of the package


@pytest.fixture(scope="module")
def numpy_loads_ma():
    return "numpy.ma" in child_imports(["-c", "import numpy"])    # numpy < 2 does


class TestColdStart:
    """A stage imports only the modules it runs, and no stage imports
    numpy.ma (plain np.unique loads it on numpy >= 2)."""

    @pytest.mark.parametrize("command,expected", [
        ("--help", HELP_MODULES),
        ("train-kgc", TRAIN_MODULES),
        ("calibrate", BUILD_MODULES | {"dsl"}),
        ("build-tensor", BUILD_MODULES),
        ("eval", HELP_MODULES | {"graph", "dsl", "tensor", "fuzzy", "harness"}),
        ("ablate", ALL_MODULES),
        # the adaptation structures are dsl's and ranking loads fuzzy and tensor
        # at call time: no calibrate, no scorer, no fuzzy, no tensor
        ("gen-queries", HELP_MODULES | {"graph", "dsl", "harness"}),
    ])
    def test_stage_imports(self, pipeline, tmp_path, numpy_loads_ma, command, expected):
        if command == "--help":
            args = ["--help"]
        elif command == "train-kgc":
            args = ["train-kgc", *pipeline["flags"], "--dim", "8", "--epochs", "1",
                    "--out", str(tmp_path / "model.npz")]
        elif command == "gen-queries":
            args = ["gen-queries", *pipeline["flags"], "--structures", "train", "--count", "2",
                    "--split", "train", "--out", str(tmp_path / "train.queries")]
        else:
            args = stage_args(command, pipeline, tmp_path)
        names = child_imports(["-m", "kgreason.cli", *args])
        # cli runs as __main__, so it is never imported under its own name
        loaded = {"cli"} | {name.split(".")[1] for name in names
                            if name.startswith("kgreason.")}
        assert loaded == expected
        if not numpy_loads_ma:
            assert "numpy.ma" not in names


class TestProcessEntry:
    """`entry` is the process entry point: it returns main's exit code and
    freezes the heap after the command; main never touches the collector."""

    def test_main_leaves_the_collector_alone(self, pipeline, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        assert main(stage_args("eval", pipeline, tmp_path)) == 0
        assert gc.get_freeze_count() == frozen

    def test_entry_freezes_after_the_command(self):
        proc = run_child(["-c", "import gc, sys\n"
                          "from kgreason.cli import entry\n"
                          "sys.argv = ['kgreason', 'frobnicate']\n"
                          "before = gc.get_freeze_count()\n"
                          "code = entry()\n"
                          "print(code, before, gc.get_freeze_count() > 0)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "0", "True"]

    def test_no_output_waits_for_a_finalizer(self):
        # cycles frozen at exit are never collected, so their finalizers never run
        for path in Path(kgreason.__file__).parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"def __del__\b|^\s*(import|from) (weakref|atexit)\b",
                                 text, flags=re.M), path.name
            for line in text.splitlines():
                if "TemporaryFile(" in line:
                    assert "with " in line or "enter_context(" in line, (path.name, line)

    def test_help_exits_0(self):
        proc = run_child(["-m", "kgreason.cli", "--help"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "usage: kgreason <command> [flags]" in proc.stdout

    def test_unknown_command_exits_2(self):
        proc = run_child(["-m", "kgreason.cli", "no-such-command"])
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown command 'no-such-command' (try --help)\n"

    def test_missing_input_file_exits_2(self, tmp_path):
        missing = tmp_path / "nope.tsv"
        proc = run_child(["-m", "kgreason.cli", "gen-queries", "--train", str(missing),
                          "--out", str(tmp_path / "q.txt")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: missing file: ") and str(missing) in proc.stderr
        assert not (tmp_path / "q.txt").exists()

    def test_eval_on_a_corrupt_tensor_exits_1(self, pipeline, tmp_path):
        tensor = CalibratedTensor.load(pipeline["tensor"])
        bad = tmp_path / "bad.kgt"
        tensor.save(bad)
        corrupt_payload(bad, tensor, "indices", 0, 99)
        proc = run_child(["-m", "kgreason.cli", "eval", "--tensor", str(bad),
                          "--queries", str(pipeline["test_q"])])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert str(bad) in proc.stderr and "out of range" in proc.stderr
