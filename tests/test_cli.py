"""End-to-end command tests; everything runs in-process through cli.main."""

import numpy as np
import pytest

from kgreason.cli import main
from kgreason.dsl import read_queries
from kgreason.kvio import read_kv
from kgreason.tensor import CalibratedTensor

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
        for name in ("ingest", "train-kgc", "calibrate", "build-tensor",
                     "gen-queries", "eval", "ablate"):
            assert name in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["ingest"]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["ingest", "--train", str(tmp_path / "nope.tsv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "missing file" in capsys.readouterr().err


class TestIngest:
    def test_artifacts_and_counts(self, tmp_path, capsys):
        paths = write_dataset(tmp_path)
        out = tmp_path / "data"
        assert main(["ingest", *graph_flags(paths), "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "entities 30" in printed and "relations 4" in printed
        for fname in ("entities.tsv", "relations.tsv", "train.txt",
                      "valid.txt", "test.txt", "ingest.manifest"):
            assert (out / fname).exists()
        relations = (out / "relations.tsv").read_text().splitlines()
        assert len(relations) == 4
        assert sum("_inverse" in line for line in relations) == 2
        first = (out / "train.txt").read_text().splitlines()[0].split("\t")
        assert all(tok.isdigit() for tok in first)

    def test_no_inverses(self, tmp_path, capsys):
        paths = write_dataset(tmp_path)
        out = tmp_path / "data"
        assert main(["ingest", *graph_flags(paths), "--no-inverses",
                     "--out-dir", str(out)]) == 0
        assert "relations 2" in capsys.readouterr().out

    def test_manifest_contents(self, tmp_path):
        paths = write_dataset(tmp_path)
        out = tmp_path / "data"
        main(["ingest", *graph_flags(paths), "--out-dir", str(out)])
        manifest = read_kv(out / "ingest.manifest")
        assert manifest["command"] == "ingest"
        assert manifest["param.out_dir"] == str(out)
        assert len(manifest["input.train.tsv.sha256"]) == 64
        assert any(k.startswith("artifact.") for k in manifest)


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

    def test_calibrate_s12_is_a_no_op(self, pipeline, capsys):
        code = main(["calibrate", *pipeline["flags"], "--model",
                     str(pipeline["model"]), "--mode", "S12"])
        assert code == 0
        assert "normalization only" in capsys.readouterr().out

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

    def test_train_kgc_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "model2.npz"
        code = main(["train-kgc", *pipeline["flags"], "--dim", "8", "--epochs",
                     "4", "--batch", "64", "--out", str(out)])
        assert code == 0
        with np.load(pipeline["model"]) as a, np.load(out) as b:
            assert np.array_equal(a["E"], b["E"])
            assert np.array_equal(a["R"], b["R"])
