import csv
import dataclasses
import inspect
import io
import json
from importlib import resources

import numpy as np
import pytest

from cellpilot.cli import build_parser, main, parse_weights, write_manifest
from cellpilot.policy import load_checkpoint
from cellpilot.topology import load_topology
from cellpilot.trainer import (SEED_STREAM_EVAL, CurriculumSchedule, TrainLogRow,
                               TrainRunConfig, ablate, derive_seeds, evaluate,
                               write_training_log)


def test_version_and_missing_command():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_gen_topology(tmp_path, capsys):
    out = tmp_path / "mine.topo"
    rc = main(["gen-topology", "--preset", "desk", "--seed", "29",
               "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fingerprint" in text and "6 cells" in text
    topo = load_topology(out)
    assert topo.n_cells == 6
    again = tmp_path / "again.topo"
    main(["gen-topology", "--preset", "desk", "--seed", "29", "-o", str(again)])
    assert again.read_bytes() == out.read_bytes()
    other = tmp_path / "other.topo"
    main(["gen-topology", "--preset", "desk", "--seed", "30", "-o", str(other)])
    assert other.read_bytes() != out.read_bytes()


@pytest.mark.parametrize("preset, seed", [
    ("desk", 29), ("baseline", 12), ("alt", 21), ("large", 5)])
def test_bundled_topologies_regenerate(tmp_path, preset, seed):
    out = tmp_path / f"{preset}.topo"
    assert main(["gen-topology", "--preset", preset, "--seed", str(seed),
                 "-o", str(out)]) == 0
    bundled = resources.files("cellpilot.data") / f"{preset}.topo"
    assert out.read_bytes() == bundled.read_bytes()


def test_gen_topology_overrides_and_errors(tmp_path, capsys):
    out = tmp_path / "big.topo"
    rc = main(["gen-topology", "--preset", "baseline", "--seed", "3",
               "--area", "900x700", "--buildings", "12", "--streets", "4x3",
               "-o", str(out)])
    assert rc == 0
    topo = load_topology(out)
    assert topo.area_bounds[2] - topo.area_bounds[0] == pytest.approx(900.0)
    assert len(topo.streets) == 7
    rc = main(["gen-topology", "--preset", "desk", "--area", "bogus",
               "-o", str(tmp_path / "x.topo")])
    assert rc == 2
    assert "expects WxH" in capsys.readouterr().err
    for flag, value, form in (("--area", "10xfoo", "WxH"),
                              ("--streets", "4xq", "NXxNY"),
                              ("--streets", "4.5x3", "NXxNY")):
        rc = main(["gen-topology", "--preset", "desk", flag, value,
                   "-o", str(tmp_path / "x.topo")])
        assert rc == 2
        assert f"error: {flag} expects {form}" in capsys.readouterr().err
    # negative counts, and a topology with nowhere to place a UE
    for args, message in ((["--buildings", "-2"], "buildings must be >= 0"),
                          (["--streets=-1x3"], "streets must be >= 0"),
                          (["--buildings", "0", "--streets", "0x0"],
                           "at least one building or street")):
        rc = main(["gen-topology", "--preset", "desk", *args,
                   "-o", str(tmp_path / "x.topo")])
        assert rc == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.topo").exists()


def test_eval_with_preset_params(tmp_path, capsys):
    out = tmp_path / "gains.csv"
    rc = main(["eval", "--topology", "desk", "--params", "config_a",
               "--seeds", "2", "--ues", "4", "--length", "5",
               "--cache", str(tmp_path / "cache"), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "median gains vs config_b" in text and "length=5s" in text
    assert out.exists()
    manifest = json.loads((tmp_path / "gains.manifest.json").read_text())
    assert manifest["command"] == "eval" and manifest["baseline"] == "config_b"
    assert len(manifest["seeds"]) == 2 and manifest["length"] == 5.0


def test_eval_argument_errors(tmp_path, capsys):
    rc = main(["eval", "--topology", "desk", "--seeds", "2"])
    assert rc == 2
    assert "provide --checkpoint or --params" in capsys.readouterr().err
    rc = main(["eval", "--topology", "desk", "--params", "config_z"])
    assert rc == 2
    rc = main(["eval", "--topology", str(tmp_path / "missing.topo"),
               "--params", "config_a"])
    assert rc == 2
    assert "neither a bundled preset" in capsys.readouterr().err


def test_a_directory_is_not_a_topology_file(tmp_path, capsys):
    rc = main(["eval", "--topology", str(tmp_path), "--params", "config_a",
               "--cache", str(tmp_path / "cache")])
    assert rc == 2
    assert "nor an existing file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("area, key", [("1e300x100", "xmax"), ("infx100", "xmax"),
                                       ("nanx100", "xmax"), ("100x2e7", "ymax")])
def test_gen_topology_checks_what_it_writes_against_the_declaration(tmp_path, capsys,
                                                                    area, key):
    out = tmp_path / "x.topo"
    assert main(["gen-topology", "--preset", "desk", "--area", area, "-o", str(out)]) == 2
    assert f"generator: area_bounds: {key}: expected a number" in capsys.readouterr().err
    assert not out.exists()


TRAIN_ARGS = ["--seeds", "2", "--ues", "4", "--hidden", "8",
              "--passes", "1", "--rounds", "2", "--initial-length", "3",
              "--increment", "1", "--checkpoint-every", "2", "--lr", "1e-3"]


def test_train_cli_and_manifest_determinism(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    rc = main(["train", "--topology", "desk", "--out", str(tmp_path / "r1"),
               "--cache", cache, *TRAIN_ARGS])
    assert rc == 0
    text = capsys.readouterr().out
    assert "trained 4 episodes" in text and "final checkpoint:" in text
    m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
    doc = json.loads(m1)
    assert doc["command"] == "train" and doc["episodes"] == 4
    assert doc["final_checkpoint"] == "ckpt_final.bin"
    rc = main(["train", "--topology", "desk", "--out", str(tmp_path / "r2"),
               "--cache", cache, *TRAIN_ARGS])
    assert rc == 0
    assert (tmp_path / "r2" / "manifest.json").read_bytes() == m1
    a = load_checkpoint(tmp_path / "r1" / "ckpt_final.bin")
    b = load_checkpoint(tmp_path / "r2" / "ckpt_final.bin")
    for n, p in a.net.params().items():
        assert p.tobytes() == b.net.params()[n].tobytes(), n


def test_train_manifest_copies_the_recorded_settings(tmp_path, monkeypatch):
    # a key added to the config document reaches the checkpoints and the
    # manifest with no other edit
    document = TrainRunConfig.document
    monkeypatch.setattr(TrainRunConfig, "document",
                        lambda cfg: {**document(cfg), "added_setting": 17})
    assert main(["train", "--topology", "desk", "--out", str(tmp_path / "r"),
                 "--cache", str(tmp_path / "cache"), *TRAIN_ARGS]) == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    meta = load_checkpoint(tmp_path / "r" / "ckpt_final.bin").meta
    assert meta["config"]["added_setting"] == 17
    for key, value in {**meta["config"], "schedule": meta["schedule"]}.items():
        assert manifest[key] == value, key


@pytest.mark.parametrize("argv, field", [
    (["train", "--checkpoint-every", "0"], "checkpoint_every"),
    (["train", "--seeds", "0"], "seed_count"),
    (["eval", "--params", "config_b", "--seeds", "0"], "eval_seed_count"),
    (["compare", "--params", "config_b", "--seeds", "0"], "eval_seed_count"),
    # ablate's --seeds is the training seed count; it too is refused untrained
    (["ablate", "--variant", "stress_test", "--seeds", "0"], "seed_count"),
    (["eval", "--params", "config_b", "--baseline", "bogus"], "preset"),
    (["eval", "--params", "config_b", "--ues", "0"], "n_ues"),
    (["train", "--hidden", "0"], "hidden"),
    # a length under half a step would run an episode of no steps
    (["eval", "--params", "config_b", "--length", "0.3"], "length"),
    (["train", "--initial-length", "0.3"], "initial_length"),
    (["eval", "--params", "config_b", "--jobs", "0"], "jobs"),
    (["compare", "--params", "config_b", "--jobs", "0"], "jobs"),
    (["ablate", "--variant", "stress_test", "--jobs", "0"], "jobs"),
    (["train", "--weights", "a,b,c"], "--weights expects three comma-separated numbers"),
    # non-finite and non-positive floats; each check must fail on NaN too
    (["eval", "--params", "config_b", "--length", "inf"], "length"),
    (["eval", "--params", "config_b", "--length", "nan"], "length"),
    (["train", "--initial-length", "inf"], "initial_length"),
    (["train", "--increment", "nan"], "increment"),
    (["train", "--lr", "nan"], "lr must be"),
    (["train", "--lr", "0"], "lr must be"),
    (["train", "--lr", "-1"], "lr must be"),
    (["train", "--weights", "nan,0.5,0.5"], "weights must be finite"),
    (["train", "--weights", "inf,-inf,1"], "weights must be finite"),
    # TrainRunConfig.validate is the one sum check; ablate applies it to the
    # weights given before a variant replaces them
    (["train", "--weights", "0.5,0.4,0.2"], "sum to 1"),
    (["ablate", "--variant", "synchronous_updates", "--weights", "0.5,0.4,0.2"],
     "sum to 1"),
], ids=["checkpoint-every", "train-seeds", "eval-seeds", "compare-seeds",
        "ablate-seeds", "eval-baseline",
        "eval-ues", "train-hidden", "eval-length", "train-initial-length",
        "eval-jobs", "compare-jobs", "ablate-jobs", "train-weights",
        "eval-length-inf", "eval-length-nan", "train-initial-length-inf",
        "train-increment-nan", "train-lr-nan", "train-lr-zero",
        "train-lr-negative", "train-weights-nan", "train-weights-inf",
        "train-weights-sum", "ablate-weights-sum"])
def test_counts_below_one_fail_early(tmp_path, capsys, argv, field):
    command, *rest = argv
    trains = command in ("train", "ablate")
    out = ["--out", str(tmp_path / "run")] if trains else []
    rc = main([command, "--topology", "desk", *out,
               "--cache", str(tmp_path / "cache"),
               *(TRAIN_ARGS if trains else []), *rest])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_exit_codes(tmp_path, capsys):
    base = ["compare", "--topology", "desk", "--params", "config_b",
            "--seeds", "2", "--ues", "4", "--length", "5",
            "--cache", str(tmp_path / "cache")]
    rc = main(base)
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rc = main(base + ["--min-tput-gain", "0.1"])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out
    # with --out, compare writes the CSV and its manifest as eval does
    out = tmp_path / "c.csv"
    rc = main(base + ["--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\nPASS: thresholds met\n")
    with open(out, newline="") as fh:
        rows = {r[0]: r[1:] for r in csv.reader(fh)}
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["seeds"] == derive_seeds(0, SEED_STREAM_EVAL, 2)
    assert manifest["seeds"] == [int(s) for s in rows if s.isdigit()]
    assert manifest["medians"] == dict(zip(("tput_gain", "bal_gain", "ue_gain"),
                                           map(float, rows["median"])))


def test_train_takes_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["train", "--topology", "desk", "--out", str(tmp_path / "run"),
              "--cache", str(tmp_path / "cache"), *TRAIN_ARGS, "--jobs", "2"])
    assert e.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


TRAIN_SETTINGS = {"run_seed", "seed_count", "n_ues", "pri", "weights", "hidden", "lr",
                  "episode_cap", "passes_per_round", "rounds", "initial_length",
                  "increment", "lr_halving", "checkpoint_every"}
EVAL_SETTINGS = {"preset", "run_seed", "eval_seed_count", "n_ues", "pri", "length",
                 "mobility_eval", "jobs"}
# flags that set no config field or function argument with a default
CLI_ONLY = {"command", "func", "topology", "out", "cache", "resume", "checkpoint",
            "params", "variant", "min_tput_gain", "min_bal_gain"}


@pytest.mark.parametrize("command, required, settings", [
    ("train", ["--out", "o"], TRAIN_SETTINGS),
    ("ablate", ["--out", "o", "--variant", "stress_test"], TRAIN_SETTINGS | {"jobs"}),
    ("eval", [], EVAL_SETTINGS),
    ("compare", [], EVAL_SETTINGS),
])
def test_every_flag_defaults_to_the_setting_it_sets(command, required, settings):
    """A flag parses into the name of the config field, or of the argument
    of `evaluate` or `ablate`, that it sets, with that one's default."""
    args = vars(build_parser().parse_args([command, "--topology", "desk", *required]))
    field_defaults = {f.name: f.default for cls in (TrainRunConfig, CurriculumSchedule)
                      for f in dataclasses.fields(cls)}
    run = inspect.signature(ablate if command == "ablate" else evaluate).parameters
    assert set(args) - CLI_ONLY == settings
    for name in settings:
        got = parse_weights(args[name]) if name == "weights" else args[name]
        want = field_defaults[name] if name in field_defaults else run[name].default
        assert type(got) is type(want) and got == want, name


def test_report_training_log(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    main(["train", "--topology", "desk", "--out", str(tmp_path / "run"),
          "--cache", cache, *TRAIN_ARGS])
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "run" / "training_log.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "episodes: 4" in text and "rounds: [0, 1]" in text
    assert "mean grad norm" in text


def test_ablate_cli_writes_the_variant_gains(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["ablate", "--topology", "desk", "--out", str(out),
               "--cache", str(tmp_path / "cache"), "--variant", "stress_test",
               *TRAIN_ARGS])
    assert rc == 0
    assert "variant stress_test: median gains" in capsys.readouterr().out
    with open(out / "ablation_stress_test.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["seed", "variant_tput_gain", "variant_bal_gain",
                      "variant_ue_gain"]
    train_seeds = load_checkpoint(out / "ckpt_final.bin").meta["loop"]["train_seeds"]
    # one row per eval seed (20 by default), in derivation order
    assert [int(r[0]) for r in rows] == derive_seeds(0, SEED_STREAM_EVAL, 20,
                                                     exclude=train_seeds)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ablate" and manifest["variant"] == "stress_test"
    gains = np.median([[float(v) for v in r[1:]] for r in rows], axis=0)
    assert manifest["medians"] == dict(zip(("tput_gain", "bal_gain", "ue_gain"),
                                           gains))


def synthetic_log(path, values):
    """A training log whose rows carry the given (ewma, rolling_std)."""
    write_training_log([TrainLogRow(e, 7, 0, 0, 1e-4, 30.0, 0.0, 0.0, 0.0, 0.0,
                                    1.0, 0, ewma, std)
                        for e, (ewma, std) in enumerate(values, 1)], path)


# rows 1-99 meet the rule's value bounds but not its 100-row window, and
# rows 100-119 sit on one bound each: row 120 decides
ON_BOUNDS = [(0.0, 0.0)] * 99 + [(5e-3, 0.0)] * 10 + [(-1e-3, 7e-3)] * 10


@pytest.mark.parametrize("values, verdict", [
    (ON_BOUNDS + [(-4.999e-3, 6.999e-3)], "episode 120"),
    (ON_BOUNDS + [(5e-3, 6.999e-3)], "no"),
    (ON_BOUNDS + [(-5e-3, 0.0)], "no"),
    (ON_BOUNDS + [(0.0, 7e-3)], "no"),
    ([(0.0, 0.0)] * 100, "episode 100"),
    ([(0.0, 0.0)] * 99, "no"),
], ids=["inside", "ewma-at-bound", "negative-ewma-at-bound", "std-at-bound",
        "window-full", "window-short"])
def test_report_applies_the_monitor_convergence_rule(tmp_path, capsys, values,
                                                     verdict):
    path = tmp_path / "training_log.csv"
    synthetic_log(path, values)
    assert main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert f"episodes: {len(values)}\n" in text
    assert f"converged: {verdict}\n" in text


def test_report_eval_csv(tmp_path, capsys):
    out = tmp_path / "gains.csv"
    main(["eval", "--topology", "desk", "--params", "config_b",
          "--seeds", "3", "--ues", "4", "--length", "5",
          "--cache", str(tmp_path / "cache"), "--out", str(out)])
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "seeds evaluated: 3" in text and "median:" in text
    junk = tmp_path / "junk.csv"
    junk.write_text("alpha,beta\n1,2\n")
    assert main(["report", str(junk)]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["report", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: empty file\n"


def test_manifest_write_is_atomic(tmp_path, monkeypatch, failing_write):
    path = tmp_path / "manifest.json"
    write_manifest(path, "eval", {"seeds": [1, 2]})
    old = path.read_bytes()
    buf = io.StringIO()
    json.dump(json.loads(old), buf, indent=2, sort_keys=True)
    assert old == (buf.getvalue() + "\n").encode()
    failing_write()
    with pytest.raises(OSError):
        write_manifest(path, "train", {"episodes": 4})
    with pytest.raises(OSError):
        write_manifest(tmp_path / "other.json", "train", {"episodes": 4})
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
