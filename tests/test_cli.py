import io
import json

import pytest

from cellpilot.cli import main, write_manifest
from cellpilot.policy import load_checkpoint
from cellpilot.topology import load_topology


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


def test_eval_with_preset_params(tmp_path, capsys):
    out = tmp_path / "gains.csv"
    rc = main(["eval", "--topology", "desk", "--params", "config_a",
               "--seeds", "2", "--ues", "4", "--length", "5",
               "--cache", str(tmp_path / "cache"), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "median gains vs config_b" in text
    assert out.exists()
    manifest = json.loads((tmp_path / "gains.manifest.json").read_text())
    assert manifest["command"] == "eval" and manifest["baseline"] == "config_b"
    assert len(manifest["seeds"]) == 2


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


@pytest.mark.parametrize("argv, field", [
    (["train", "--checkpoint-every", "0"], "checkpoint_every"),
    (["train", "--seeds", "0"], "seed_count"),
    (["eval", "--params", "config_b", "--seeds", "0"], "eval_seeds"),
], ids=["checkpoint-every", "train-seeds", "eval-seeds"])
def test_counts_below_one_fail_early(tmp_path, capsys, argv, field):
    command, *rest = argv
    out = ["--out", str(tmp_path / "run")] if command == "train" else []
    rc = main([command, "--topology", "desk", *out,
               "--cache", str(tmp_path / "cache"),
               *(TRAIN_ARGS if command == "train" else []), *rest])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "cache").exists()


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
