import functools
import hashlib
import json
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import treepolicy
from treepolicy import evalkit, pipeline, teacher
from treepolicy.binio import read_blocks
from treepolicy.cli import _write_manifest, main
from treepolicy.dataio import (
    DayProfile,
    NormalizationStats,
    RunConfig,
    load_config,
    load_profiles,
    save_profiles,
)
from treepolicy.ddt import load_tree, tree_from_json
from treepolicy.diffmath import dense_forward_batch
from treepolicy.distill import agreement_rate
from treepolicy.evalkit import CrispTreePolicy, TeacherPolicy, rollout
from treepolicy.teacher import load_checkpoint, load_states, save_states

from conftest import drop_entry, edit_container, replace_block, write_old_replay_buffer

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


def refuse(*args, **kwargs):
    pytest.fail("the stage started its work before it checked --out")


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

    def test_student_summary_records_the_checkpoint_digest(self, workdir):
        _, _, out = workdir
        summary = json.loads(Path(out, "students", "summary_d2.json").read_text())
        ckpt = Path(out, "checkpoints", "teacher.ckpt").read_bytes()
        assert summary["checkpoint"] == hashlib.sha256(ckpt).hexdigest()

    def test_distill_trains_on_the_states_buffer_names(self, workdir, tmp_path):
        _, cfg, out = workdir
        ckpt = os.path.join(out, "checkpoints", "teacher.ckpt")
        states = load_states(os.path.join(out, "checkpoints", "replay.buf"))[:100]
        subset = tmp_path / "first100.buf"
        save_states(states, str(subset))
        fresh = tmp_path / "run"
        assert main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2",
                     "--checkpoint", ckpt, "--buffer", str(subset)]) == 0
        teacher_q = dense_forward_batch(load_checkpoint(ckpt)[0], states)
        rows = json.loads((fresh / "students" / "summary_d2.json").read_text())["seeds"]
        for row in rows:
            tree = load_tree(str(fresh / "students" / f"ddt_d2_s{row['seed']}.tree.json"))
            assert row["teacher_agreement"] == agreement_rate(tree, states, teacher_q)

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


DROP = object()
# (keys to the edited item of a depth-2 tree, its new value or DROP to delete it,
# the field the error names); no keys wraps the document in a JSON array
MALFORMED_TREES = {
    "json-array": ([], None, "'document'"),
    "no-nodes": (["nodes"], DROP, "'nodes'"),
    "depth-text": (["depth"], "two", "'depth'"),
    "depth-bool": (["depth"], True, "'depth'"),
    "depth-above-node-count": (["depth"], 3, "'depth'"),
    "depth-zero": (["depth"], 0, "'depth'"),
    "node-not-object": (["nodes", 1], 3, "'nodes[1]'"),
    "no-feature": (["nodes", 0, "feature"], DROP, "'nodes[0].feature'"),
    "feature-5": (["nodes", 2, "feature"], 5, "'nodes[2].feature'"),
    "feature-negative": (["nodes", 2, "feature"], -1, "'nodes[2].feature'"),
    "feature-float": (["nodes", 2, "feature"], 1.0, "'nodes[2].feature'"),
    "threshold-text-nan": (["nodes", 0, "threshold"], "nan", "'nodes[0].threshold'"),
    "threshold-nan": (["nodes", 0, "threshold"], float("nan"), "'nodes[0].threshold'"),
    "threshold-infinite": (["nodes", 0, "threshold"], float("inf"), "'nodes[0].threshold'"),
    "flipped-int": (["nodes", 1, "flipped"], 1, "'nodes[1].flipped'"),
    "leaf-action-5": (["leaf_actions", 3], 5, "'leaf_actions[3]'"),
    "leaf-action-text": (["leaf_actions", 0], "idle", "'leaf_actions[0]'"),
    "no-leaf-actions": (["leaf_actions"], DROP, "'leaf_actions'"),
    # features and actions are stored by index, under envsim's names in envsim's order
    "feature-names-pv-first": (["feature_names"], ["pv", "hour", "soc", "price", "demand"],
                               "'feature_names'"),
    "feature-names-short": (["feature_names"], ["hour", "soc", "price", "demand"],
                            "'feature_names'"),
    "feature-names-text": (["feature_names"], "hour,soc,price,demand,pv", "'feature_names'"),
    "no-feature-names": (["feature_names"], DROP, "'feature_names'"),
    "action-names-reversed": (["action_names"], ["charge_full", "charge_half", "idle",
                                                 "discharge_half", "discharge_full"],
                              "'action_names'"),
    "no-action-names": (["action_names"], DROP, "'action_names'"),
}


class TestErrorPaths:
    def test_missing_profiles_names_producer(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        rc = main(["train-teacher", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "gen-data" in err
        assert not out.exists()

    def test_missing_checkpoint_names_producer(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        rc = main(["distill", "--out", str(out)])
        assert rc == 2
        assert "train-teacher" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train-teacher", "distill", "reproduce",
                                         "evaluate", "heatmap"])
    def test_out_that_is_a_file_names_it(self, workdir, tmp_path, capsys, monkeypatch,
                                         command):
        # every stage that can read its inputs inside --out names it before it looks
        # for one, whether its inputs are there (evaluate, heatmap) or not
        monkeypatch.setattr(teacher, "train_teacher", refuse)
        _, cfg, run = workdir
        ckpt = os.path.join(run, "checkpoints")
        args = {"gen-data": ["--days", "1"], "reproduce": [],
                "evaluate": ["--config", cfg], "heatmap": ["--config", cfg],
                "train-teacher": ["--config", cfg,
                                  "--profiles", os.path.join(run, "profiles.csv")],
                "distill": ["--config", cfg, "--checkpoint", os.path.join(ckpt, "teacher.ckpt"),
                            "--buffer", os.path.join(ckpt, "replay.buf")]}[command]
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = main([command, *args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err and "missing" not in err
        assert out.read_text() == "not a directory\n"

    def test_evaluate_checks_out_before_the_rollouts(self, workdir, tmp_path, capsys,
                                                     monkeypatch):
        # evaluate reads its checkpoint and students inside --out, so the layout
        # it cannot create is reports/, taken by a file
        monkeypatch.setattr(evalkit, "compare_policies", refuse)
        monkeypatch.setattr(evalkit, "dp_optimal_cost", refuse)
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        for sub in ("checkpoints", "students"):
            shutil.copytree(os.path.join(out, sub), fresh / sub)
        shutil.copy(os.path.join(out, "profiles.csv"), fresh)
        (fresh / "reports").write_text("not a directory\n")
        rc = main(["evaluate", "--config", cfg, "--out", str(fresh)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(fresh) in err

    def test_export_tree_out_that_is_a_directory_names_it(self, workdir, tmp_path, capsys):
        _, _, out = workdir
        tree_path = os.path.join(out, "students", "ddt_d2_s0.tree.json")
        rc = main(["export-tree", "--tree", tree_path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(tmp_path) in err
        assert os.listdir(tmp_path) == []

    def test_export_tree_out_in_a_missing_directory_names_it(self, workdir, tmp_path, capsys):
        _, _, out = workdir
        tree_path = os.path.join(out, "students", "ddt_d2_s0.tree.json")
        target = tmp_path / "nodir" / "x.txt"
        rc = main(["export-tree", "--tree", tree_path, "--out", str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(target) in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("artifact", ["checkpoint", "buffer"])
    def test_artifact_path_that_is_a_directory_names_it(self, workdir, tmp_path, capsys,
                                                        artifact):
        _, cfg, out = workdir
        paths = {"checkpoint": os.path.join(out, "checkpoints", "teacher.ckpt"),
                 "buffer": os.path.join(out, "checkpoints", "replay.buf")}
        paths[artifact] = str(tmp_path / artifact)
        os.mkdir(paths[artifact])
        fresh = tmp_path / "o"
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2",
                   "--checkpoint", paths["checkpoint"], "--buffer", paths["buffer"]])
        assert rc == 2
        assert f"cannot read {paths[artifact]!r}" in capsys.readouterr().err
        assert not fresh.exists()

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    def test_checkpoint_that_is_a_directory_names_it(self, workdir, tmp_path, capsys, command):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "students"), fresh / "students")
        shutil.copy(os.path.join(out, "profiles.csv"), fresh)
        ckpt = fresh / "checkpoints" / "teacher.ckpt"
        ckpt.mkdir(parents=True)
        rc = main([command, "--config", cfg, "--out", str(fresh)])
        assert rc == 2
        assert f"cannot read {str(ckpt)!r}" in capsys.readouterr().err
        assert sorted(os.listdir(fresh)) == ["checkpoints", "profiles.csv", "students"]

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

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    def test_depths_outside_student_depth_bound_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command, "--out", str(out), "--depths", "2,4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--depths" in err and "student_depth must lie in [2, 3], got 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--depths", "2,x"], "--depths"), (["heatmap", "--seeds", "0;1"], "--seeds"),
        (["distill", "--seeds", "1.5"], "--seeds")])
    def test_unparsable_integer_list_names_its_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        assert f"cannot parse {flag}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("value", ["1.0", "0.5"])
    def test_removed_timestep_key_rejected(self, tmp_path, capsys, value):
        # one profile row is one hour, so the step length is not a knob
        old = tmp_path / "old.cfg"
        old.write_text(f"timestep_hours={value}\n")
        rc = main(["gen-data", "--config", str(old), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 1: unknown key 'timestep_hours'" in capsys.readouterr().err

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
                                      "capacity_rate_eur_per_kw=-1",
                                      "price_mode=file", "episodes=10\nepisodes=20"])
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
                                               ("replay.buf", "states")])
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
        ("teacher.ckpt", {"normalization": {"price_min": 0.0}}, "lacks 'price_max'"),
        ("teacher.ckpt", {"normalization": {"price_min": float("nan"), "price_max": 0.25,
                                            "demand_min": 0.2, "demand_max": 4.1,
                                            "pv_min": 0.0, "pv_max": 1.9}},
         "'price_min' is not finite"),
    ], ids=["normalization-without-fields", "normalization-nan"])
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

    @pytest.mark.parametrize("edit,message", [
        (lambda states: states[:, :4], "block 'states' has shape ({n}, 4)"),
        (lambda states: states[:0], "block 'states' has shape (0, 5)"),
        (lambda states: np.append(states[:-1], [[0.5, 0.5, np.nan, 0.5, 0.5]], axis=0),
         "block 'states' has non-finite entries"),
        (None, "is not a replay-states/v1 artifact"),
    ], ids=["too-narrow", "no-rows", "nan", "replay-buffer-v1"])
    def test_bad_states_file_names_file_and_block(self, workdir, tmp_path, capsys, edit,
                                                  message):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "checkpoints"), fresh / "checkpoints")
        buf = fresh / "checkpoints" / "replay.buf"
        states = load_states(str(buf))
        if edit is None:
            write_old_replay_buffer(buf, states)
        else:
            replace_block(buf, "states", edit(states))
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "replay.buf" in err and message.format(n=len(states)) in err
        assert not (fresh / "students").exists()

    def test_non_finite_teacher_q_names_checkpoint_and_states_file(self, workdir, tmp_path,
                                                                   capsys):
        # finite states far outside the training range overflow the teacher's forward
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        shutil.copytree(os.path.join(out, "checkpoints"), fresh / "checkpoints")
        buf = fresh / "checkpoints" / "replay.buf"
        replace_block(buf, "states", np.full_like(load_states(str(buf)), 1e308))
        rc = main(["distill", "--config", cfg, "--out", str(fresh), "--depth", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "teacher.ckpt" in err and "replay.buf" in err
        assert "teacher_q contains non-finite entries" in err
        assert not (fresh / "students").exists()

    @pytest.mark.parametrize("command", ["distill", "evaluate", "heatmap"])
    def test_checkpoint_with_non_finite_weight_names_file_and_block(self, workdir, tmp_path,
                                                                   capsys, command):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        for sub in ("checkpoints", "students"):
            shutil.copytree(os.path.join(out, sub), fresh / sub)
        shutil.copy(os.path.join(out, "profiles.csv"), fresh)
        ckpt = fresh / "checkpoints" / "teacher.ckpt"
        w1 = read_blocks(str(ckpt))[1]["w1"]
        w1[0, 0] = np.nan
        replace_block(ckpt, "w1", w1)
        rc = main([command, "--config", cfg, "--out", str(fresh)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "teacher.ckpt" in err and "block 'w1' has non-finite entries" in err

    @pytest.mark.parametrize("keys,value,field", MALFORMED_TREES.values(), ids=MALFORMED_TREES)
    def test_malformed_tree_names_file_and_field(self, workdir, tmp_path, capsys, keys, value,
                                                 field):
        _, _, out = workdir
        doc = json.loads(Path(out, "students", "ddt_d2_s0.tree.json").read_text())
        if not keys:
            doc = [doc]
        else:
            *parents, last = keys
            target = functools.reduce(operator.getitem, parents, doc)
            if value is DROP:
                del target[last]
            else:
                target[last] = value
        bad = tmp_path / "bad.tree.json"
        bad.write_text(json.dumps(doc))
        rc = main(["export-tree", "--tree", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.tree.json" in err and field in err

    def test_evaluate_rejects_malformed_student(self, workdir, tmp_path, capsys):
        _, cfg, out = workdir
        fresh = tmp_path / "run"
        for sub in ("checkpoints", "students"):
            shutil.copytree(os.path.join(out, sub), fresh / sub)
        shutil.copy(os.path.join(out, "profiles.csv"), fresh)
        tree = fresh / "students" / "ddt_d2_s1.tree.json"
        tree.write_text(tree.read_text().replace('"leaf_actions": [', '"leaf_actions": [7, '))
        rc = main(["evaluate", "--config", cfg, "--out", str(fresh)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ddt_d2_s1.tree.json" in err and "'leaf_actions'" in err

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


def test_evaluate_normalizes_held_out_days_with_the_checkpoint_stats(workdir, tmp_path):
    # the thresholds of the teacher's students are learned on the training days'
    # ranges; held-out days with 1.6 times the demand widen the demand range
    _, cfg, out = workdir
    fresh = tmp_path / "run"
    for sub in ("checkpoints", "students"):
        shutil.copytree(os.path.join(out, sub), fresh / sub)
    held_out = [DayProfile(d.prices_eur_per_kwh, 1.6 * d.demand_kw, d.pv_kw, d.label)
                for d in load_profiles(os.path.join(out, "profiles.csv"))]
    days_csv = tmp_path / "held_out.csv"
    save_profiles(held_out, str(days_csv))
    assert main(["evaluate", "--config", cfg, "--out", str(fresh),
                 "--profiles", str(days_csv)]) == 0

    config = load_config(cfg)
    net, checkpoint_stats = load_checkpoint(str(fresh / "checkpoints" / "teacher.ckpt"))
    held_out_stats = NormalizationStats.from_profiles(held_out)
    assert checkpoint_stats.demand_max < held_out_stats.demand_max
    students = {seed: CrispTreePolicy(load_tree(str(fresh / "students" /
                                                    f"ddt_d2_s{seed}.tree.json")))
                for seed in config.seeds}
    groups = {"dqn": {config.teacher_seed: TeacherPolicy(net)}, "ddt2": students}
    rows = json.loads((fresh / "reports" / "comparison.json").read_text())["rows"]
    for name, members in groups.items():
        stage = {r["seed"]: r["mean_daily_cost_eur"] for r in rows if r["policy"] == name}
        means = {stats: {seed: float(np.mean(rollout(
                    policy, held_out, config.battery(), config.tariff(), stats,
                    config.initial_soc).total_cost_eur)) for seed, policy in members.items()}
                 for stats in (checkpoint_stats, held_out_stats)}
        assert stage == means[checkpoint_stats], name
        assert np.mean(list(stage.values())) != np.mean(list(means[held_out_stats].values())), name


def test_artifacts_are_byte_equal_at_1_and_2_blas_threads(tmp_path):
    # batch 1,000 spans several gradient blocks; the loss curve is written in
    # float64, so a summation order that followed the thread count would show
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("episodes=50\nbatch_size=1000\nbuffer_size=1200\ndays=4\n"
                   "student_epochs=20\nseeds=0,1\n")
    package_root = os.path.dirname(os.path.dirname(treepolicy.__file__))
    hashes = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (package_root,
                                                            os.environ.get("PYTHONPATH")))))
        out = str(tmp_path / f"threads{threads}")
        for command in (["gen-data"], ["train-teacher"], ["distill", "--depth", "2"]):
            subprocess.run([sys.executable, "-m", "treepolicy.cli", *command,
                            "--config", str(cfg), "--out", out],
                           env=env, check=True, capture_output=True, timeout=300)
        hashes[threads] = tree_hashes(out)
    assert {"checkpoints/teacher.ckpt", "checkpoints/replay.buf",
            "reports/teacher_loss.csv", "students/ddt_d2_s1.tree.json"} <= set(hashes["1"])
    assert hashes["1"] == hashes["2"]


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


def fail_at_runtime(*args, **kwargs):
    raise RuntimeError("the stage broke")


def test_runtime_failure_prints_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "stage_gen_data", fail_at_runtime)
    rc = main(["gen-data", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "runtime failure: the stage broke\n"


def test_debug_reraises_a_runtime_failure_with_its_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "stage_gen_data", fail_at_runtime)
    with pytest.raises(RuntimeError, match="the stage broke") as exc:
        main(["--debug", "gen-data", "--out", str(tmp_path / "o")])
    assert exc.traceback[-1].name == "fail_at_runtime"
    assert capsys.readouterr().err == ""


def test_debug_keeps_a_config_error_to_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("episodes=0\n")
    rc = main(["--debug", "gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "episodes" in err
