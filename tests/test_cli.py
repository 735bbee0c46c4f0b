import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from treepolicy.cli import _write_manifest, main
from treepolicy.dataio import RunConfig
from treepolicy.ddt import tree_from_json

from conftest import drop_entry, edit_container

TINY = "\n".join([
    "episodes=60",
    "batch_size=200",
    "buffer_size=600",
    "days=4",
    "student_epochs=40",
    "seeds=0,1",
]) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full tiny pipeline run shared by the read-only CLI assertions."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    out = str(root / "run")
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == 0
    assert main(["train-teacher", "--config", str(cfg), "--out", out]) == 0
    assert main(["distill", "--config", str(cfg), "--out", out, "--depth", "2"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--out", out]) == 0
    assert main(["heatmap", "--config", str(cfg), "--out", out]) == 0
    return root, str(cfg), out


def tree_hashes(out):
    hashes = {}
    for sub, _, files in os.walk(out):
        for f in files:
            p = os.path.join(sub, f)
            with open(p, "rb") as fh:
                hashes[os.path.relpath(p, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class TestPipelineCommands:
    def test_layout_and_artifacts(self, workdir):
        _, _, out = workdir
        for rel in (
            "profiles.csv",
            "checkpoints/teacher.ckpt",
            "checkpoints/replay.buf",
            "students/ddt_d2_s0.tree.json",
            "students/ddt_d2_s1.rules.txt",
            "students/summary_d2.json",
            "reports/comparison_per_seed.csv",
            "reports/comparison.json",
            "reports/dp_oracle.csv",
            "heatmaps/summary.json",
        ):
            assert os.path.exists(os.path.join(out, rel)), rel

    def test_manifests_written_with_hashes(self, workdir):
        _, _, out = workdir
        for cmd in ("gen-data", "train-teacher", "distill", "evaluate", "heatmap"):
            path = os.path.join(out, f"manifest-{cmd}.json")
            assert os.path.exists(path), cmd
            doc = json.loads(Path(path).read_text())
            assert doc["command"] == cmd
            assert doc["config"]["episodes"] == 60
            for rel, digest in doc["outputs"].items():
                target = os.path.join(out, rel)
                actual = hashlib.sha256(Path(target).read_bytes()).hexdigest()
                assert actual == digest, rel

    def test_export_tree_round_trip(self, workdir, capsys, tmp_path):
        _, _, out = workdir
        tree_path = os.path.join(out, "students", "ddt_d2_s0.tree.json")
        assert main(["export-tree", "--tree", tree_path, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert text.count("if ") == 3

        exported = str(tmp_path / "again.json")
        assert main(["export-tree", "--tree", tree_path, "--format", "json",
                     "--out", exported]) == 0
        original = tree_from_json(Path(tree_path).read_text())
        again = tree_from_json(Path(exported).read_text())
        assert original == again

    def test_rules_text_uses_real_feature_names(self, workdir):
        _, _, out = workdir
        text = Path(out, "students", "ddt_d2_s0.rules.txt").read_text()
        assert any(name in text for name in ("price", "pv", "demand", "soc", "hour"))

    def test_reruns_are_byte_identical(self, workdir):
        root, cfg, out = workdir
        before = tree_hashes(out)
        assert main(["train-teacher", "--config", cfg, "--out", out]) == 0
        assert main(["distill", "--config", cfg, "--out", out, "--depth", "2"]) == 0
        assert main(["evaluate", "--config", cfg, "--out", out]) == 0
        after = tree_hashes(out)
        assert before == after


class TestErrorPaths:
    def test_missing_profiles_names_producer(self, tmp_path, capsys):
        out = str(tmp_path / "fresh")
        rc = main(["train-teacher", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "gen-data" in err

    def test_missing_checkpoint_names_producer(self, tmp_path, capsys):
        out = str(tmp_path / "fresh")
        rc = main(["distill", "--out", out])
        assert rc == 2
        assert "train-teacher" in capsys.readouterr().err

    def test_depth_guard(self, workdir, capsys):
        _, cfg, out = workdir
        rc = main(["distill", "--config", cfg, "--out", out, "--depth", "4"])
        assert rc == 2
        assert "2 or 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    def test_repeated_depths_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command, "--out", str(out), "--depths", "2,2"])
        assert rc == 2
        assert "--depths" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_lists_valid(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate=1\n")
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "valid keys" in capsys.readouterr().err

    def test_removed_oracle_grid_key_rejected(self, tmp_path, capsys):
        # the oracle is exact and has no resolution knob any more
        old = tmp_path / "old.cfg"
        old.write_text("dp_soc_grid=1601\n")
        rc = main(["evaluate", "--config", str(old), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 1: unknown key 'dp_soc_grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["12", "24"])
    def test_removed_horizon_key_rejected(self, tmp_path, capsys, value):
        # a day is always 24 hourly rows, so the horizon is not a knob
        old = tmp_path / "old.cfg"
        old.write_text(f"horizon_steps={value}\n")
        rc = main(["gen-data", "--config", str(old), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 1: unknown key 'horizon_steps'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["initial_soc=1.5", "heatmap_grid=0", "action_levels=-1,0,1",
                                      "student_batch_size=0", "episodes=0", "days=0",
                                      "gamma=1.5", "learning_rate=-1",
                                      "hidden_sizes=", "batch_size=0", "buffer_size=0",
                                      "target_blend=2", "epsilon_start=2", "epsilon_end=-1",
                                      "epsilon_decay_fraction=0", "student_epochs=0",
                                      "student_learning_rate=-1", "feature_sparsity=-1",
                                      "heatmap_fixed_hour=99", "heatmap_fixed_pv=5",
                                      "injection_fraction=2", "contracted_min_kw=-5",
                                      "seeds=1,1", "batch_size=200\nbuffer_size=100",
                                      "battery_efficiency=0", "battery_capacity_kwh=-1",
                                      "timestep_hours=0", "capacity_rate_eur_per_kw=-1",
                                      "price_mode=file"])
    def test_invalid_config_value_names_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        rc = main(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["nan,1.0,0.5", "0.1,inf,0.5", "0.1,1.0,-inf"])
    def test_non_finite_profile_value_names_line(self, tmp_path, capsys, values):
        out = tmp_path / "o"
        out.mkdir()
        rows = ["hour,price,demand,pv"] + [f"{h},0.1,1.0,0.5" for h in range(24)]
        rows[5] = f"4,{values}"
        (out / "profiles.csv").write_text("\n".join(rows) + "\n")
        rc = main(["train-teacher", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "finite" in err

    def test_truncated_replay_buffer_names_file(self, workdir, tmp_path, capsys):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "checkpoints"), fresh / "checkpoints")
        buf = fresh / "checkpoints" / "replay.buf"
        buf.write_bytes(buf.read_bytes()[:-8])
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "replay.buf" in err and "truncated" in err

    @pytest.mark.parametrize("artifact,name", [("teacher.ckpt", "layer_sizes"),
                                               ("replay.buf", "terminals")])
    def test_artifact_without_meta_key_or_block_names_file(self, workdir, tmp_path, capsys,
                                                           artifact, name):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "checkpoints"), fresh / "checkpoints")
        drop_entry(fresh / "checkpoints" / artifact, name)
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert artifact in err and repr(name) in err

    @pytest.mark.parametrize("artifact,edit,message", [
        ("replay.buf", {"size": 9, "capacity": 4}, "inconsistent"),
        ("teacher.ckpt", {"normalization": {"price_min": 0.0}}, "lacks 'price_max'"),
    ], ids=["buffer-size-above-capacity", "normalization-without-fields"])
    def test_inconsistent_artifact_names_file(self, workdir, tmp_path, capsys, artifact, edit,
                                              message):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "checkpoints"), fresh / "checkpoints")
        edit_container(fresh / "checkpoints" / artifact, **edit)
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert artifact in err and message in err

    def test_unknown_export_format(self, workdir, capsys):
        _, _, out = workdir
        tree_path = os.path.join(out, "students", "ddt_d2_s0.tree.json")
        rc = main(["export-tree", "--tree", tree_path, "--format", "pdf"])
        assert rc == 2

    def test_gen_data_refuses_profile_path(self, tmp_path, capsys):
        # profile_path selects real data, which gen-data would not be writing
        cfg = tmp_path / "file.cfg"
        cfg.write_text("profile_path=whatever.csv\n")
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "profile_path" in capsys.readouterr().err

    def test_profile_path_selects_real_data(self, tmp_path, capsys):
        # the default <out>/profiles.csv exists, but the config points elsewhere
        out = tmp_path / "o"
        assert main(["gen-data", "--out", str(out)]) == 0
        cfg = tmp_path / "real.cfg"
        cfg.write_text(f"profile_path={tmp_path / 'meter.csv'}\n")
        rc = main(["train-teacher", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "meter.csv" in capsys.readouterr().err


def test_manifest_relativizes_only_inputs_inside_out(tmp_path):
    # "run2" shares its first three letters with "run" but is not inside it
    out = tmp_path / "run"
    inside, sibling = out / "profiles.csv", tmp_path / "run2" / "profiles.csv"
    for path in (inside, sibling):
        path.parent.mkdir(exist_ok=True)
        path.write_text("hour,price,demand,pv\n")
    for out_arg in (str(out), str(out) + os.sep):
        _write_manifest("test", out_arg, RunConfig(), [str(inside), str(sibling)], [])
        manifest = json.loads((out / "manifest-test.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(["profiles.csv", str(sibling)])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "treepolicy" in capsys.readouterr().out
