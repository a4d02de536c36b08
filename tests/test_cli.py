"""Command-line layer: exit codes, artifacts, overrides, rerun determinism."""

import configparser
import csv
import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pqlab.cli as cli
import pqlab.market_paths as mp
import pqlab.pq_game as pq_game
import pqlab.q_pricer as q_pricer
import pqlab.runconfig as rc
import pqlab.sampler as sampler
import pqlab.training as training
from pqlab.errors import DataError, NumericError
from pqlab.path_stats import METRICS
from pqlab.sampler import read_path_bundle

CONFIG_BODY = """\
[run]
out_dir = {out}

[data]
source = synthetic
n_days = 400
windows = 30
split_date = 2015-12-01
seed = 3

[schedule]
timesteps = 60

[model]
base_channels = 4
depth = 2
time_embed_dim = 4
cond_embed_dim = 4
cond_hidden_dim = 8
mode = v

[train]
steps = 25
batch_size = 8
seed = 1
checkpoint_every = 10

[sampler]
num_steps = 12
n_paths = 16
seed = 5

[validate]
n_paths = 40
max_conditions = 4

[game]
products = european
levels = 0.0,0.2
q_paths = 400
p_paths = 32
seed = 9
"""

ARTIFACTS = (
    "config.ini",
    "slices.npz",
    "dataset.manifest",
    "loss_log.csv",
    "train_trace.csv",
    "checkpoint.npz",
    "checkpoint_step10.npz",
    "checkpoint_step20.npz",
    "paths_slice2.csv",
    "paths_slice2.csv.manifest",
    "table_5_1.csv",
    "validate_conditions.csv",
    "game_european_0.0.csv",
    "game_european_0.2.csv",
    "game_european.txt",
    "game_european_slices.csv",
)


def write_workspace(root):
    """Config file plus out dir path under one root; returns (ini, out)."""
    out = os.path.join(str(root), "out")
    ini = os.path.join(str(root), "run.ini")
    with open(ini, "w") as fh:
        fh.write(CONFIG_BODY.format(out=out))
    return ini, out


def write_ini_with(root, section, key, value):
    """write_workspace's config file with one key set; returns its path."""
    ini = os.path.join(str(root), "run.ini")
    config = configparser.ConfigParser(interpolation=None)
    config.read_string(CONFIG_BODY.format(out=os.path.join(str(root), "out")))
    config[section][key] = str(value)
    with open(ini, "w") as fh:
        config.write(fh)
    return ini


def run_chain(ini):
    for argv in (
        ["prepare", ini],
        ["train", ini],
        ["sample", ini, "--slice", "2"],
        ["validate", ini],
        ["game", ini],
    ):
        assert cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ini, out = write_workspace(root)
    run_chain(ini)
    return ini, out


def poison_gradient(monkeypatch, bad_step, value):
    """Make one entry of the bad_step-th training gradient ``value``."""
    calls = []
    backward = training.denoiser.backward

    def poisoned(*args, **kwargs):
        grads = backward(*args, **kwargs)
        calls.append(1)
        if len(calls) == bad_step:
            grads["head.b"][0] = value
        return grads

    monkeypatch.setattr(training.denoiser, "backward", poisoned)


def read_bytes(out, name):
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


def run_fresh(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this pqlab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# `pqlab ARGV...` killed by os._exit(9) as training step KILL_STEP starts,
# so with nothing of the process's own shutdown run: no flush, no close.
KILL_AT_STEP = """
import os
import sys
import pqlab.cli as cli
import pqlab.training as training
kill_step, argv = int(sys.argv[1]), sys.argv[2:]
train_step = training.train_step

def killed(padded, state, config, step, *rest):
    if step == kill_step:
        os._exit(9)
    return train_step(padded, state, config, step, *rest)

training.train_step = killed
sys.exit(cli.main(argv))
"""


def train_killed_at(kill_step, *argv):
    run = run_fresh(KILL_AT_STEP, str(kill_step), "train", *argv)
    assert run.returncode == 9, run.stderr


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = cli.main(["prepare", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[run]\nout_dir = out\n[train]\nstpes = 5\n")
        assert cli.main(["train", str(ini)]) == 2
        assert "stpes" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, needle", [
        ("input_length", 2**40, "input_length must be at most 16384"),
        ("depth", 10**12, "depth must be at most 14"),
        ("base_channels", 10**6, "parameters, more than 16777216"),
        ("time_embed_dim", 2 * 10**9, "parameters, more than 16777216"),
        ("cond_embed_dim", 10**9, "parameters, more than 16777216"),
        ("cond_hidden_dim", 10**12, "parameters, more than 16777216"),
    ])
    def test_oversized_model_is_config_error(self, tmp_path, capsys, key, value, needle):
        # the value would size an array (or, for depth, a power of two) at
        # the first step; load_config refuses it before any command runs
        ini = write_ini_with(tmp_path, "model", key, value)
        assert cli.main(["train", ini]) == 2
        assert needle in capsys.readouterr().err

    OVERSIZED = [
        ("data", "n_days", 10**13, "prepare",
         "[data] n_days = 10000000000000: generator n_days must be at most 262144"),
        ("train", "batch_size", 10**12, "train", "[train] batch_size must be at most 4096"),
        ("sampler", "n_paths", 10**12, "sample", "[sampler] n_paths must be in [0, 65536]"),
        ("validate", "n_paths", 10**12, "validate",
         "[validate] n_paths must be in [1, 65536]"),
        ("game", "p_paths", 10**12, "game", "[game] p_paths must be in [1, 65536]"),
        ("game", "q_paths", 10**15, "game", "[game] q_paths must be in [1, 4194304]"),
        # prepare starts no worker, whatever the value
        ("run", "threads", 10**6, "prepare", "[run] threads must be in [1, 32]"),
    ]

    @pytest.mark.parametrize("section, key, value, command, needle", OVERSIZED,
                             ids=[f"{row[0]}.{row[1]}" for row in OVERSIZED])
    def test_oversized_size_is_config_error(self, tmp_path, capsys, section, key, value,
                                            command, needle):
        # each value would size an allocation (or a worker pool) in the
        # command; load_config refuses it before the command reads anything
        ini = write_ini_with(tmp_path, section, key, value)
        tracemalloc.start()
        try:
            assert cli.main([command, ini]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert needle in capsys.readouterr().err
        assert peak < 2**24 and not (tmp_path / "out").exists()

    def test_train_before_prepare_is_data_error(self, tmp_path, capsys):
        ini, _ = write_workspace(tmp_path)
        assert cli.main(["train", str(ini)]) == 3
        assert "prepare" in capsys.readouterr().err

    def test_sample_before_train_is_data_error(self, tmp_path, capsys):
        ini, _ = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        assert cli.main(["sample", ini]) == 3
        assert "train" in capsys.readouterr().err

    def test_numeric_failure_maps_to_exit_4(self, tmp_path, monkeypatch, capsys):
        ini, _ = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0

        def explode(*args, **kwargs):
            raise NumericError("loss diverged")

        monkeypatch.setattr(training, "steps", explode)
        assert cli.main(["train", ini]) == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_step,value", [(25, math.nan), (3, math.inf)])
    def test_non_finite_gradient_is_numeric_error(self, tmp_path, monkeypatch, capsys,
                                                  bad_step, value):
        # a gradient entry turns non-finite on one step: the run stops there,
        # before clipping scales it or Adam writes it into the parameters
        ini, out = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        poison_gradient(monkeypatch, bad_step, value)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*encountered in", category=RuntimeWarning)
            assert cli.main(["train", ini]) == 4
        err = capsys.readouterr().err
        assert f"non-finite gradient at step {bad_step}" in err and repr(value) in err
        assert not os.path.exists(os.path.join(out, "checkpoint.npz"))
        for name in ("loss_log.csv", "train_trace.csv"):
            with open(os.path.join(out, name)) as fh:
                steps = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
            assert steps == [str(step) for step in range(1, bad_step)]

    @pytest.mark.parametrize("name", ["loss_log.csv", "train_trace.csv"])
    @pytest.mark.parametrize("damage", ["fewer rows", "rows out of order", "header"])
    def test_resume_log_that_cannot_be_cut_back_is_data_error(
            self, workspace, tmp_path, monkeypatch, capsys, name, damage):
        # resuming at step 20 keeps each log's header and rows 1..20; a log
        # that does not hold them is refused before any step runs
        _, out = workspace
        ini, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        for log in ("loss_log.csv", "train_trace.csv"):
            shutil.copy(os.path.join(out, log), os.path.join(out2, log))
        with open(os.path.join(out2, name), newline="") as fh:
            lines = fh.readlines()
        if damage == "fewer rows":
            del lines[20:]
        elif damage == "rows out of order":
            lines[7], lines[8] = lines[8], lines[7]
        else:
            lines[0] = lines[0].replace("step,", "steps,")
        with open(os.path.join(out2, name), "w", newline="") as fh:
            fh.writelines(lines)
        damaged = read_bytes(out2, name)
        monkeypatch.setattr(training, "steps", lambda *a, **k: pytest.fail("a step ran"))
        snap = os.path.join(out, "checkpoint_step20.npz")
        assert cli.main(["train", ini, "--resume", snap]) == 3
        assert name in capsys.readouterr().err
        assert read_bytes(out2, name) == damaged
        assert not os.path.exists(os.path.join(out2, "checkpoint.npz"))

    def test_bad_slice_index_is_config_error(self, workspace):
        ini, _ = workspace
        assert cli.main(["sample", ini, "--slice", "999"]) == 2

    def test_unknown_product_override_is_config_error(self, workspace, capsys):
        ini, _ = workspace
        assert cli.main(["game", ini, "--product", "swaption"]) == 2
        assert "swaption" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["0.1,0.1", "0.0,0.2,0.0"])
    def test_repeated_levels_override_is_config_error(self, workspace, tmp_path, capsys,
                                                      levels):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "out")
        assert cli.main(["game", ini, "--out-dir", dest, "--levels", levels]) == 2
        assert "levels must not repeat" in capsys.readouterr().err
        assert not any(name.startswith("game_") for name in os.listdir(dest))

    def test_checkpoint_missing_entry_is_data_error(self, workspace, tmp_path, capsys):
        ini, out = workspace
        with np.load(os.path.join(out, "checkpoint.npz")) as archive:
            entries = {k: archive[k] for k in archive.files if k != "net_config"}
        bad = tmp_path / "no_net_config.npz"
        np.savez(bad, **entries)
        assert cli.main(["sample", ini, "--checkpoint", str(bad)]) == 3
        assert "net_config" in capsys.readouterr().err

    @staticmethod
    def csv_source_ini(tmp_path, bad, last_row):
        """A csv-source config whose ``bad`` file ends in ``last_row``."""
        files = {
            "series_csv": b"date,close,is_trading_day\n2020-01-01,1.0,1\n"
                          b"2020-01-02,1.0,1\n",
            "rates_csv": b"date,tenor_days,rate\n2020-01-01,30,0.02\n",
        }
        files[bad] += last_row
        lines = ["[run]", f"out_dir = {tmp_path / 'out'}", "[data]", "source = csv"]
        for key, blob in files.items():
            (tmp_path / f"{key}.csv").write_bytes(blob)
            lines.append(f"{key} = {tmp_path / f'{key}.csv'}")
        ini = tmp_path / "run.ini"
        ini.write_text("\n".join(lines) + "\n")
        return str(ini)

    @pytest.mark.parametrize("bad", ["series_csv", "rates_csv"])
    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys, bad):
        ini = self.csv_source_ini(tmp_path, bad,
                                  "2020-01-03,caf\u00e9,1\n".encode("latin-1"))
        assert cli.main(["prepare", ini]) == 3
        err = capsys.readouterr().err
        assert f"{bad}.csv" in err and "utf-8" in err

    @pytest.mark.parametrize("bad, row", [("series_csv", b"today,1.0,1\n"),
                                          ("rates_csv", b"now,30,0.02\n")])
    def test_wall_clock_date_cell_is_data_error(self, tmp_path, capsys, bad, row):
        assert cli.main(["prepare", self.csv_source_ini(tmp_path, bad, row)]) == 3
        err = capsys.readouterr().err
        assert f"{bad}.csv" in err and "YYYY-MM-DD" in err

    def test_truncated_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        ini, out = workspace
        with open(os.path.join(out, "checkpoint.npz"), "rb") as fh:
            blob = fh.read()
        bad = tmp_path / "cut.npz"
        bad.write_bytes(blob[: len(blob) // 2])
        assert cli.main(["validate", ini, "--checkpoint", str(bad)]) == 3
        assert "checkpoint" in capsys.readouterr().err


def copy_game_inputs(out, dest):
    """A fresh out dir holding only what `game` reads from a finished run."""
    os.makedirs(dest)
    for name in ("slices.npz", "dataset.manifest", "checkpoint.npz"):
        shutil.copy(os.path.join(out, name), dest)
    return str(dest)


class TestFileSystemFaults:
    """An out_dir or artifact path the file system refuses ends as exit 2 or 3."""

    def run(self, capsys, argv, code, needle):
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("pqlab: error:") and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_out_dir_that_is_a_file_is_config_error(self, tmp_path, capsys, command):
        ini, out = write_workspace(tmp_path)
        with open(out, "w") as fh:
            fh.write("not a directory\n")
        self.run(capsys, [command, ini], 2, "[run] out_dir")

    def test_out_dir_under_a_file_is_config_error(self, tmp_path, capsys):
        ini, _ = write_workspace(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        self.run(capsys, ["prepare", ini, "--out-dir", str(blocker / "out")], 2,
                 "[run] out_dir")

    @pytest.mark.parametrize("command,name", [("prepare", "dataset.manifest"),
                                              ("prepare", "dataset.manifest.tmp"),
                                              ("train", "loss_log.csv"),
                                              ("train", "checkpoint_step10.npz")])
    def test_artifact_path_that_is_a_directory_is_data_error(self, tmp_path, capsys,
                                                              command, name):
        ini, out = write_workspace(tmp_path)
        if command == "train":
            assert cli.main(["prepare", ini]) == 0
        os.makedirs(os.path.join(out, name))
        self.run(capsys, [command, ini], 3, os.path.join(out, "dataset.manifest"
                                                         if command == "prepare" else name))
        assert not [n for n in os.listdir(out)
                    if n.endswith(".tmp") and not os.path.isdir(os.path.join(out, n))]
        assert os.path.isdir(os.path.join(out, name))

    def test_log_that_cannot_be_opened_to_append_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot append to"):
            cli._append(str(tmp_path))

    def test_full_disk_under_savez_keeps_the_slice_store(self, tmp_path, capsys,
                                                         monkeypatch):
        ini, out = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        before = read_bytes(out, "slices.npz")
        savez = np.savez

        def full_disk(file, **arrays):  # the whole new archive, then a full disk
            savez(file, **arrays)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", full_disk)
        self.run(capsys, ["prepare", ini], 3, os.path.join(out, "slices.npz"))
        assert read_bytes(out, "slices.npz") == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_full_disk_under_a_csv_row_keeps_the_game_file(self, workspace, tmp_path,
                                                           capsys, monkeypatch):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "full")
        assert cli.main(["game", ini, "--out-dir", dest]) == 0
        capsys.readouterr()
        before = read_bytes(dest, "game_european_0.0.csv")
        real_writer = csv.writer

        class FullDisk:
            def __init__(self, fh):
                self.writer = real_writer(fh)

            def writerow(self, row):
                return self.writer.writerow(row)

            def writerows(self, rows):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(csv, "writer", FullDisk)
        self.run(capsys, ["game", ini, "--out-dir", dest], 3,
                 os.path.join(dest, "game_european_0.0.csv"))
        assert read_bytes(dest, "game_european_0.0.csv") == before
        assert not [name for name in os.listdir(dest) if name.endswith(".tmp")]

    def test_full_disk_under_a_log_flush_is_data_error(self, tmp_path, capsys,
                                                       monkeypatch):
        ini, out = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        real_append = cli._append

        class FullDisk:
            def __init__(self, path):
                self.fh = real_append(path)

            def write(self, text):
                return self.fh.write(text)

            def flush(self):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "_append", FullDisk)
        self.run(capsys, ["train", ini], 3, os.path.join(out, "loss_log.csv"))
        # the flush before the first snapshot failed, so no snapshot was saved
        assert not os.path.exists(os.path.join(out, "checkpoint_step10.npz"))


class TestNonFiniteSliceStore:
    @pytest.mark.parametrize(
        "member, field",
        [("test_r", "r"), ("test_tcal", "t_calendar"), ("test_ttrad", "t_trading"),
         ("test_s0", "s0"), ("test_returns", "log_returns")],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_tampered_condition_is_data_error(
        self, workspace, tmp_path, capsys, member, field, value
    ):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "tampered")
        path = os.path.join(dest, "slices.npz")
        with np.load(path) as archive:
            entries = {k: archive[k] for k in archive.files}
        entries[member] = entries[member].copy()
        entries[member][0] = value
        np.savez(path, **entries)
        assert cli.main(["game", ini, "--out-dir", dest]) == 3
        assert f"{field} must be finite" in capsys.readouterr().err


class TestTestOnlyLoad:
    """`game`, `validate` and `sample` unpack only the test slices, but still
    read and check the train group."""

    @pytest.mark.parametrize("member, value", [
        ("train_returns", np.nan), ("train_s0", -1.0), ("train_sigma", np.inf),
        ("train_ttrad", 99.0),
    ])
    @pytest.mark.parametrize("command", ["game", "validate", "sample"])
    def test_corrupt_train_column_exits_3(self, workspace, tmp_path, capsys, command,
                                          member, value):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "tampered")
        path = os.path.join(dest, "slices.npz")
        with np.load(path) as archive:
            entries = {k: archive[k] for k in archive.files}
        entries[member] = entries[member].copy()
        entries[member][0] = value
        np.savez(path, **entries)
        assert cli.main([command, ini, "--out-dir", dest]) == 3
        assert member in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["game", "validate"])
    def test_no_train_slice_is_built(self, workspace, tmp_path, monkeypatch, command):
        ini, out = workspace
        n_test = len(mp.load_slices(os.path.join(out, "slices.npz")).test)
        built = []
        real_init = mp.PathSlice.__post_init__

        def counting_init(self):
            built.append(self.start_date)
            real_init(self)

        monkeypatch.setattr(mp.PathSlice, "__post_init__", counting_init)
        dest = copy_game_inputs(out, tmp_path / command)
        assert cli.main([command, ini, "--out-dir", dest]) == 0
        assert len(built) == n_test


def tamper_checkpoint(out, dest, key, value):
    """A copy of the run's checkpoint with one entry replaced."""
    with np.load(os.path.join(out, "checkpoint.npz")) as archive:
        entries = {k: archive[k] for k in archive.files}
    if key in ("params", "adam_m", "adam_v", "bn_values"):
        entries[key] = entries[key].copy()
        entries[key][0] = value
    else:
        entries[key] = np.asarray(value, dtype=entries[key].dtype)
    np.savez(dest, **entries)
    return str(dest)


def net_config_checkpoint(out, dest, edit):
    """A copy of the run's checkpoint whose net_config JSON dict went through edit."""
    with np.load(os.path.join(out, "checkpoint.npz")) as archive:
        entries = {k: archive[k] for k in archive.files}
    net = json.loads(str(entries["net_config"]))
    edit(net)
    entries["net_config"] = np.array(json.dumps(net))
    np.savez(dest, **entries)
    return str(dest)


class TestTamperedManifest:
    @pytest.mark.parametrize("line", [
        None, "return_scale=", "return_scale=abc", "return_scale=nan",
        "return_scale=inf", "return_scale=0.0", "return_scale=-0.01",
    ])
    def test_bad_return_scale_is_data_error(self, workspace, tmp_path, capsys, line):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "tampered")
        path = os.path.join(dest, "dataset.manifest")
        with open(path) as fh:
            kept = [ln for ln in fh if not ln.startswith("return_scale=")]
        with open(path, "w") as fh:
            fh.writelines(kept + ([] if line is None else [line + "\n"]))
        assert cli.main(["train", ini, "--out-dir", dest]) == 3
        err = capsys.readouterr().err
        assert "dataset.manifest" in err and "return_scale" in err

    def test_non_utf8_manifest_is_data_error(self, workspace, tmp_path, capsys):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "tampered")
        with open(os.path.join(dest, "dataset.manifest"), "ab") as fh:
            fh.write(b"note=\xff\xfe\n")
        assert cli.main(["train", ini, "--out-dir", dest]) == 3
        assert "dataset.manifest" in capsys.readouterr().err


class TestTamperedCheckpoint:
    @pytest.mark.parametrize("key, value, needle", [
        ("step", -1, "step"),
        ("mode", "score", "mode"),
        ("beta", [0.5, 1.5], "beta"),
        ("beta", [0.1, np.nan], "beta"),
        ("return_scale", np.nan, "return_scale"),
        ("return_scale", 0.0, "return_scale"),
        ("params", np.nan, "params"),
        ("adam_m", np.inf, "adam_m"),
        ("adam_v", np.nan, "adam_v"),
        ("bn_values", np.nan, "bn_values"),
    ])
    def test_sample_exits_3(self, workspace, tmp_path, capsys, key, value, needle):
        ini, out = workspace
        bad = tamper_checkpoint(out, tmp_path / "bad.npz", key, value)
        assert cli.main(["sample", ini, "--checkpoint", bad]) == 3
        err = capsys.readouterr().err
        assert "bad.npz" in err and needle in err

    @pytest.mark.parametrize("field", ["adam_v", "running_var"])
    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_negative_second_moment_or_variance_exits_3(
        self, workspace, tmp_path, capsys, field, command
    ):
        # Adam and batch-norm inference take square roots of these: a
        # negative entry must not reach them as NaN
        ini, out = workspace
        state = training.load_checkpoint(os.path.join(out, "checkpoint.npz"))
        if field == "adam_v":
            state.flat_adam_v[:] = -1.0
        else:
            for name, values in state.bn_state.items():
                if name.endswith(".running_var"):
                    values[:] = -1.0
        bad = str(tmp_path / "bad.npz")
        training.save_checkpoint(bad, state)
        dest = copy_game_inputs(out, tmp_path / "run")
        argv = (["train", ini, "--out-dir", dest, "--resume", bad] if command == "train"
                else ["validate", ini, "--out-dir", dest, "--checkpoint", bad])
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "bad.npz" in err and field in err and "must be >= 0" in err
        assert not os.path.exists(os.path.join(dest, "table_5_1.csv"))

    @pytest.mark.parametrize("field", ["depth", "base_channels", "input_length"])
    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_float_net_config_field_exits_3(self, workspace, tmp_path, capsys, field,
                                            command):
        # 2.0 for 2 would pass every range check and fail deep in the network
        ini, out = workspace
        bad = net_config_checkpoint(out, tmp_path / "bad.npz",
                                    lambda net: net.update({field: float(net[field])}))
        dest = copy_game_inputs(out, tmp_path / "run")
        argv = (["train", ini, "--out-dir", dest, "--resume", bad] if command == "train"
                else ["validate", ini, "--out-dir", dest, "--checkpoint", bad])
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "net_config" in err and f"{field} must be an integer" in err

    @pytest.mark.parametrize("field, value, needle", [
        ("input_length", 2**40, "input_length must be at most 16384"),
        ("depth", 10**12, "depth must be at most 14"),
    ])
    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_oversized_net_config_field_exits_3(self, workspace, tmp_path, capsys, field,
                                                value, needle, command):
        # input_length sizes no weight, so the layout check cannot catch it
        # (the run would allocate at that length); a huge depth would stall
        # on 2**depth before the layout is read
        ini, out = workspace
        bad = net_config_checkpoint(out, tmp_path / "bad.npz",
                                    lambda net: net.update({field: value}))
        dest = copy_game_inputs(out, tmp_path / "run")
        argv = (["train", ini, "--out-dir", dest, "--resume", bad] if command == "train"
                else ["validate", ini, "--out-dir", dest, "--checkpoint", bad])
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "net_config" in err and needle in err

    def test_resume_from_negative_step_exits_3(self, workspace, tmp_path, capsys):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "resume")
        bad = tamper_checkpoint(out, tmp_path / "bad.npz", "step", -3)
        assert cli.main(["train", ini, "--out-dir", dest, "--resume", bad]) == 3
        assert "step must be >= 0" in capsys.readouterr().err


# one small array of any kind a store member could hold, or any shape
SMALL_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_),
                           np.dtype("U4"), np.dtype("datetime64[D]")]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
)


REMOVED = object()
# a net_config field's value: anything but a non-negative integer, or no
# field at all; integers stay small, so no case asks for a large network
NET_CONFIG_VALUES = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=4), st.none(),
    st.integers(-10, -1), st.just(REMOVED),
)


class TestFuzzedStores:
    """A store member swapped for a random small array, or a net_config field
    set to a bad value, is read or is exit 3."""

    @pytest.mark.parametrize("store", ["slices.npz", "checkpoint.npz"])
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_swapped_member(self, workspace, tmp_path_factory, store, data):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path_factory.mktemp("fuzz") / "out")
        path = os.path.join(dest, store)
        with np.load(path) as archive:
            entries = {k: archive[k] for k in archive.files}
        key = data.draw(st.sampled_from(sorted(entries)), label="member")
        entries[key] = data.draw(SMALL_ARRAYS, label="value")
        np.savez(path, **entries)
        assert cli.main(["sample", ini, "--out-dir", dest]) in (0, 3)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_net_config_field(self, workspace, tmp_path_factory, data):
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path_factory.mktemp("fuzz") / "out")
        path = os.path.join(dest, "checkpoint.npz")

        def edit(net):
            key = data.draw(st.sampled_from(sorted(net)), label="field")
            value = data.draw(NET_CONFIG_VALUES, label="value")
            if value is REMOVED:
                del net[key]
            else:
                net[key] = value

        net_config_checkpoint(out, path, edit)
        assert cli.main(["sample", ini, "--out-dir", dest]) in (0, 3)


# a return_scale value: every float repr (NaN, infinities, zeros and
# negatives included), hand-picked edge spellings, and free text
SCALE_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " 0.01 ", "1e999", "1e-400", "-0.0", "0x10", "1_0", "+inf"]),
    st.text(max_size=12),
)
# a manifest line: a return_scale entry or garbage (no "=", comments, other keys)
MANIFEST_LINES = st.one_of(
    SCALE_VALUES.map(lambda value: "return_scale=" + value),
    st.text(max_size=30),
)

# a return_scale value for an otherwise intact manifest: every float repr
# (NaN, infinities, -0.0, subnormals and 1e308 among them) and free text
# without a line break, so every other entry keeps its line
LINE_SCALE_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "inf", "-0.0", "5e-324", "2.2250738585072014e-308",
                     "1e308", "1e309", " 0.01 ", "0x10", "1_0"]),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=12),
)


def with_scale_value(out, dest, value):
    """copy_game_inputs of ``out`` into ``dest``, its return_scale line holding ``value``."""
    if not os.path.exists(dest):
        copy_game_inputs(out, dest)
    with open(os.path.join(out, "dataset.manifest"), encoding="utf-8") as fh:
        lines = fh.readlines()
    assert sum(line.startswith("return_scale=") for line in lines) == 1
    lines = [f"return_scale={value}\n" if line.startswith("return_scale=") else line
             for line in lines]
    with open(os.path.join(dest, "dataset.manifest"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return str(dest)


class TestFuzzedManifest:
    """``_load_slices`` yields a finite, positive return scale or a DataError."""

    @settings(deadline=None, max_examples=200)
    @given(value=LINE_SCALE_VALUES)
    def test_replaced_scale_comes_back_bit_equal_or_data_error(
            self, workspace, tmp_path_factory, value):
        ini, out = workspace
        dest = with_scale_value(out, tmp_path_factory.getbasetemp() / "replaced_scale",
                                value)
        try:
            expected = float(value)
        except ValueError:
            expected = math.nan
        cfg = replace(rc.load_config(ini), out_dir=dest)
        if not (math.isfinite(expected) and expected > 0.0):
            with pytest.raises(DataError, match="return_scale"):
                cli._load_slices(cfg)
            return
        _, scale = cli._load_slices(cfg)
        assert type(scale) is float and scale.hex() == expected.hex()

    @pytest.mark.parametrize("value", ["5e-324", "0.026848387362619408", "1e308"])
    def test_finite_positive_scale_comes_back_bit_equal(self, workspace, tmp_path, value):
        ini, out = workspace
        dest = with_scale_value(out, tmp_path / "out", value)
        _, scale = cli._load_slices(replace(rc.load_config(ini), out_dir=dest))
        assert scale.hex() == float(value).hex()

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_scale_is_finite_positive_or_data_error(self, workspace, tmp_path_factory,
                                                    data):
        ini, out = workspace
        with open(os.path.join(out, "dataset.manifest"), "rb") as fh:
            real = fh.read()
        blob = data.draw(st.one_of(
            st.integers(0, len(real)).map(lambda cut: real[:cut]),  # truncated
            st.binary(max_size=120),  # arbitrary bytes, mostly not UTF-8
            st.lists(MANIFEST_LINES, max_size=6).map(
                lambda lines: "\n".join(lines).encode("utf-8")),
        ), label="manifest")
        dest = tmp_path_factory.getbasetemp() / "fuzzed_manifest"
        if not dest.exists():
            copy_game_inputs(out, dest)
        with open(os.path.join(dest, "dataset.manifest"), "wb") as fh:
            fh.write(blob)
        cfg = replace(rc.load_config(ini), out_dir=str(dest))
        try:
            _, scale = cli._load_slices(cfg)
        except DataError:
            return
        assert type(scale) is float and math.isfinite(scale) and scale > 0.0


class TestPrepare:
    def test_artifacts_exist(self, workspace):
        _, out = workspace
        for name in ("slices.npz", "dataset.manifest", "config.ini"):
            assert os.path.isfile(os.path.join(out, name))

    def test_manifest_matches_direct_slicing(self, workspace):
        _, out = workspace
        manifest = mp.read_manifest(os.path.join(out, "dataset.manifest"))
        series = mp.synthesize_series(mp.GeneratorConfig(n_days=400), seed=3)
        rates = {30: mp.RateTable(30, ["2015-01-01"], [0.03])}
        split = mp.slice_dataset(series, rates, [30], "2015-12-01")
        assert int(manifest["train_slices"]) == len(split.train)
        assert int(manifest["test_slices"]) == len(split.test)
        assert int(manifest["l_max"]) == split.l_max
        scale = training.compute_return_scale(split.train)
        assert float(manifest["return_scale"]) == scale

    def test_store_round_trips(self, workspace):
        _, out = workspace
        split = mp.load_slices(os.path.join(out, "slices.npz"))
        assert len(split.train) > 0 and len(split.test) > 0
        assert all(s.log_returns.size <= split.l_max for s in split.train)

    def test_config_echo_parses_back(self, workspace):
        ini, out = workspace
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(os.path.join(out, "config.ini")) as fh:
            parser.read_file(fh)
        echoed = rc.parse_config(parser)
        assert echoed == rc.load_config(ini)


class TestTrain:
    def test_loss_log_shape(self, workspace):
        _, out = workspace
        with open(os.path.join(out, "loss_log.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,core,jump,vol,gvol,kurt,drift,pinball,spectral,total"
        assert len(lines) == 1 + 25
        assert lines[1].split(",")[0] == "1"
        assert lines[-1].split(",")[0] == "25"

    def test_checkpoint_reaches_final_step(self, workspace):
        _, out = workspace
        state = training.load_checkpoint(os.path.join(out, "checkpoint.npz"))
        assert state.step == 25
        assert state.net.input_length == 20

    def test_cadence_checkpoints_written(self, workspace):
        _, out = workspace
        for step in (10, 20):
            snap = training.load_checkpoint(
                os.path.join(out, f"checkpoint_step{step}.npz")
            )
            assert snap.step == step

    def test_resume_from_snapshot_matches_straight_run(self, workspace, tmp_path):
        _, out = workspace
        with open(os.path.join(out, "checkpoint.npz"), "rb") as fh:
            straight = fh.read()
        ini2, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini2]) == 0
        os.makedirs(out2, exist_ok=True)
        shutil.copy(
            os.path.join(out, "checkpoint_step20.npz"),
            os.path.join(out2, "snapshot.npz"),
        )
        code = cli.main(
            ["train", ini2, "--resume", os.path.join(out2, "snapshot.npz")]
        )
        assert code == 0
        with open(os.path.join(out2, "checkpoint.npz"), "rb") as fh:
            resumed = fh.read()
        assert resumed == straight
        with open(os.path.join(out2, "loss_log.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + 5
        assert lines[1].split(",")[0] == "21"

    def test_resumed_logs_equal_the_straight_run(self, workspace, tmp_path):
        # a resumed run appends to the step-20 logs it finds
        _, out = workspace
        ini2, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini2]) == 0
        straight = {}
        for name in ("loss_log.csv", "train_trace.csv"):
            with open(os.path.join(out, name)) as fh:
                straight[name] = fh.read()
            with open(os.path.join(out2, name), "w") as fh:
                fh.write("".join(straight[name].splitlines(keepends=True)[:1 + 20]))
        shutil.copy(os.path.join(out, "checkpoint_step20.npz"), os.path.join(out2, "snap.npz"))
        assert cli.main(["train", ini2, "--resume", os.path.join(out2, "snap.npz")]) == 0
        for name, text in straight.items():
            with open(os.path.join(out2, name)) as fh:
                assert fh.read() == text, name
        rows = straight["train_trace.csv"].splitlines()
        assert rows[0] == training.TRACE_CSV_HEADER
        assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(1, 26)]

    @pytest.mark.parametrize("snapshot", [20, 10])
    def test_resume_after_a_stopped_run_equals_the_straight_run(
            self, workspace, tmp_path, monkeypatch, snapshot):
        # a NaN gradient stops the run at step 25 with logs through step 24;
        # the resumed run cuts them back to the checkpoint's step first
        _, out = workspace
        ini2, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini2]) == 0
        with monkeypatch.context() as patch:
            poison_gradient(patch, 25, math.nan)
            assert cli.main(["train", ini2]) == 4
        snap = os.path.join(out2, f"checkpoint_step{snapshot}.npz")
        assert cli.main(["train", ini2, "--resume", snap]) == 0
        for name in ("loss_log.csv", "train_trace.csv", "checkpoint.npz"):
            assert read_bytes(out2, name) == read_bytes(out, name), name

    @pytest.mark.parametrize("snapshot", [20, 10])
    def test_resume_after_a_killed_run_equals_the_straight_run(
            self, workspace, tmp_path, snapshot):
        # killed as step 21 starts, just after the step-20 snapshot: the logs
        # on disk must already hold the rows a resume from either snapshot keeps
        _, out = workspace
        ini2, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini2]) == 0
        train_killed_at(21, ini2)
        assert not os.path.exists(os.path.join(out2, "checkpoint.npz"))
        snap = os.path.join(out2, f"checkpoint_step{snapshot}.npz")
        assert cli.main(["train", ini2, "--resume", snap]) == 0
        for name in ("loss_log.csv", "train_trace.csv", "checkpoint.npz"):
            assert read_bytes(out2, name) == read_bytes(out, name), name
        assert sorted(os.listdir(out2)) == sorted(
            ["config.ini", "slices.npz", "dataset.manifest", "loss_log.csv",
             "train_trace.csv", "checkpoint.npz", "checkpoint_step10.npz",
             "checkpoint_step20.npz"])

    def test_resume_killed_before_its_first_snapshot_resumes(self, workspace, tmp_path):
        # a resumed run rewrites the logs it keeps; killed before its next
        # snapshot, it must leave them on disk for the resume after it
        _, out = workspace
        ini2, out2 = write_workspace(tmp_path)
        assert cli.main(["prepare", ini2]) == 0
        train_killed_at(21, ini2)
        snap = os.path.join(out2, "checkpoint_step10.npz")
        train_killed_at(15, ini2, "--resume", snap)
        assert cli.main(["train", ini2, "--resume", snap]) == 0
        for name in ("loss_log.csv", "train_trace.csv", "checkpoint.npz"):
            assert read_bytes(out2, name) == read_bytes(out, name), name

    def test_checkpoint_cadence(self, tmp_path, monkeypatch):
        # every checkpoint_every steps both logs are flushed, then the
        # snapshot is saved: each save finds rows 1..N of both logs on disk
        ini = write_ini_with(tmp_path, "train", "checkpoint_every", 5)
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["prepare", ini]) == 0
        saves = []
        save = training.save_checkpoint

        def spy(path, state):
            for name in ("loss_log.csv", "train_trace.csv"):
                with open(os.path.join(out, name)) as fh:
                    steps = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
                assert steps == [str(i) for i in range(1, state.step + 1)], (name, path)
            saves.append((os.path.basename(path), state.step))
            save(path, state)

        monkeypatch.setattr(training, "save_checkpoint", spy)
        assert cli.main(["train", ini, "--steps", "12"]) == 0
        assert saves == [("checkpoint_step5.npz", 5), ("checkpoint_step10.npz", 10),
                         ("checkpoint.npz", 12)]
        assert sorted(name for name in os.listdir(out) if name.startswith("checkpoint")) \
            == ["checkpoint.npz", "checkpoint_step10.npz", "checkpoint_step5.npz"]

    def test_resume_rejects_mismatched_schedule(self, workspace, tmp_path):
        ini, out = workspace
        ini2 = tmp_path / "other.ini"
        body = CONFIG_BODY.format(out=out).replace("timesteps = 60", "timesteps = 50")
        ini2.write_text(body)
        code = cli.main(
            ["train", str(ini2), "--resume", os.path.join(out, "checkpoint_step20.npz")]
        )
        assert code == 2

    def test_steps_override(self, tmp_path):
        ini, out = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        assert cli.main(["train", ini, "--steps", "3"]) == 0
        with open(os.path.join(out, "loss_log.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 3


class TestSample:
    def test_bundle_round_trips(self, workspace):
        _, out = workspace
        paths, meta = read_path_bundle(os.path.join(out, "paths_slice2.csv"))
        assert paths.shape == (16, 18)
        assert np.isfinite(paths).all()
        assert meta["n_paths"] == "16"


# Run in a fresh interpreter: prepare, train and game load neither scipy nor
# numpy.ma (which np.quantile and np.unique import, 13 ms and 1.3 MB)
IMPORT_GUARD = """
import sys
import pqlab.cli as cli
ini = sys.argv[1]
for argv in (["prepare", ini], ["train", ini], ["game", ini]):
    assert cli.main(argv) == 0, argv
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]
assert not loaded, loaded
"""


# Run in a fresh interpreter on a prepared and trained workspace: sample,
# validate and one KS p-value load neither scipy nor numpy.ma, and the p-value
# equals scipy's Kolmogorov survival function bit for bit, scipy imported last
P_VALUE_GUARD = """
import math
import sys
import numpy as np
import pqlab.cli as cli
from pqlab.path_stats import ks_two_sample
ini = sys.argv[1]
for argv in (["sample", ini, "--slice", "0"], ["validate", ini]):
    assert cli.main(argv) == 0, argv
rng = np.random.default_rng(0)
a, b = rng.standard_normal(50), rng.standard_normal(70) + 0.4
stat, p_value = ks_two_sample(a, b)
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]
assert not loaded, loaded
from scipy.special import kolmogorov
expected = float(kolmogorov(math.sqrt(50 * 70 / 120) * stat))
assert 0.0 < p_value < 1.0 and p_value == expected, (p_value, expected)
"""


class TestScipyOnlyForValidate:
    """No command loads scipy; it is only the tests' reference for the p-value."""

    def test_scipy_loads_on_the_first_p_value(self, tmp_path):
        # Inverted since validate computed its p-values with scipy: the first
        # p-value loads nothing, and scipy loads only when imported afterwards.
        ini, _ = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        assert cli.main(["train", ini]) == 0
        run = run_fresh(P_VALUE_GUARD, ini)
        assert run.returncode == 0, run.stderr

    def test_prepare_train_and_game_load_neither_scipy_nor_numpy_ma(self, tmp_path):
        ini, _ = write_workspace(tmp_path)
        run = run_fresh(IMPORT_GUARD, ini)
        assert run.returncode == 0, run.stderr


# `pqlab prepare INI` killed by os._exit(9) right after it writes slices.npz,
# so the store is new and dataset.manifest is the previous prepare's
KILL_AFTER_SLICES = """
import os
import sys
import pqlab.cli as cli
import pqlab.market_paths as mp
save_slices = mp.save_slices

def killed(*args):
    save_slices(*args)
    os._exit(9)

mp.save_slices = killed
sys.exit(cli.main(["prepare", sys.argv[1]]))
"""


class TestMismatchedStore:
    """A store and a manifest from two prepares are a DataError before any work."""

    @pytest.mark.parametrize("key, value, command", [
        ("seed", 4, ["train"]),  # same counts: only the return scale differs
        ("split_date", "2015-11-01", ["train"]),
        ("split_date", "2015-11-01", ["sample", "--slice", "0"]),
        ("split_date", "2015-11-01", ["validate"]),
        ("split_date", "2015-11-01", ["game"]),
    ])
    def test_killed_prepare_is_data_error(self, tmp_path, capsys, key, value, command):
        ini, out = write_workspace(tmp_path)
        assert cli.main(["prepare", ini]) == 0
        manifest = read_bytes(out, "dataset.manifest")
        run = run_fresh(KILL_AFTER_SLICES, write_ini_with(tmp_path, "data", key, value))
        assert run.returncode == 9, run.stderr
        assert read_bytes(out, "dataset.manifest") == manifest
        capsys.readouterr()
        assert cli.main([command[0], ini, *command[1:]]) == 3
        err = capsys.readouterr().err
        assert "slices.npz" in err and "dataset.manifest" in err
        assert "do not belong together" in err
        assert sorted(os.listdir(out)) == ["config.ini", "dataset.manifest", "slices.npz"]


class TestValidate:
    def test_table_shape_and_finiteness(self, workspace):
        _, out = workspace
        with open(os.path.join(out, "table_5_1.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "metric,mean,std"
        assert len(lines) == 1 + len(METRICS)
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == list(METRICS)
        for line in lines[1:]:
            _, mean, std = line.split(",")
            assert np.isfinite(float(mean)) and np.isfinite(float(std))


    def test_conditions_file_holds_the_rows_the_table_summarizes(self, workspace):
        _, out = workspace
        with open(os.path.join(out, "validate_conditions.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        with open(os.path.join(out, "table_5_1.csv"), newline="") as fh:
            table = {metric: mean for metric, mean, _ in list(csv.reader(fh))[1:]}
        manifest = mp.read_manifest(os.path.join(out, "dataset.manifest"))
        n = min(4, int(manifest["test_slices"]))  # [validate] max_conditions = 4
        assert rows[0] == ["condition", *METRICS]
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(n)]
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        for j, metric in enumerate(METRICS):
            assert repr(float(np.nanmean(values[:, j]))) == table[metric], metric


class TestGame:
    def test_per_level_csvs(self, workspace):
        _, out = workspace
        for tag in ("0.0", "0.2"):
            with open(os.path.join(out, f"game_european_{tag}.csv")) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "level,cum_pnl,trades,longs,shorts,win_rate,sharpe"
            assert len(lines) == 2
            assert lines[1].startswith(tag + ",")

    def test_text_table_lists_levels(self, workspace):
        _, out = workspace
        with open(os.path.join(out, "game_european.txt")) as fh:
            text = fh.read()
        lines = text.splitlines()
        assert lines[0] == "european"
        assert len(lines) == 2 + 2
        assert lines[1].split() == [
            "level", "cum_pnl", "trades", "longs", "shorts", "win_rate", "sharpe",
        ]

    def test_slices_csv_rows_and_sides(self, workspace):
        _, out = workspace
        with open(os.path.join(out, "game_european_slices.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["start_date", "fair", "p_value", "realized",
                           "side_0.0", "side_0.2"]
        manifest = mp.read_manifest(os.path.join(out, "dataset.manifest"))
        assert len(rows) - 1 == int(manifest["test_slices"])
        for row in rows[1:]:
            assert np.datetime64(row[0], "D").astype(str) == row[0]
            assert all(repr(float(cell)) == cell for cell in row[1:4])
            assert set(row[4:]) <= {"long", "short", "none"}
        for col, tag in ((4, "0.0"), (5, "0.2")):
            with open(os.path.join(out, f"game_european_{tag}.csv")) as fh:
                trades = int(fh.read().splitlines()[1].split(",")[2])
            assert sum(row[col] != "none" for row in rows[1:]) == trades

    def test_estimate_overflow_exits_3(self, workspace, tmp_path, capsys):
        # a snowball notional whose Q sum overflows float64 at the default
        # q_paths: a DataError naming the estimate, not an OverflowError
        ini, out = workspace
        dest = copy_game_inputs(out, tmp_path / "huge")
        body = open(ini).read().replace("q_paths = 400\n", "")
        huge = tmp_path / "huge.ini"
        huge.write_text(body + "\n[contracts]\nsnow_notional = 1e307\n")
        assert cli.main(["game", str(huge), "--out-dir", dest, "--product", "snowball"]) == 3
        err = capsys.readouterr().err
        assert "estimate" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(dest, "game_snowball.txt"))

    def test_product_and_levels_override(self, workspace):
        ini, out = workspace
        code = cli.main(
            ["game", ini, "--product", "snowball", "--levels", "0.005"]
        )
        assert code == 0
        path = os.path.join(out, "game_snowball_0.005.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.005,")
        assert os.path.isfile(os.path.join(out, "game_snowball.txt"))

    def test_negative_zero_level_is_level_zero(self, workspace, tmp_path):
        # -0.0 quotes exactly like 0.0, so it is written under the same names
        ini, out = workspace
        files = {}
        for level in ("0.0", "-0.0"):
            dest = copy_game_inputs(out, tmp_path / level)
            assert cli.main(["game", ini, "--out-dir", dest, f"--levels={level}"]) == 0
            files[level] = TestSharedPPaths.game_files(dest)
        assert "game_european_0.0.csv" in files["0.0"]
        assert files["-0.0"] == files["0.0"]


class TestSharedPPaths:
    """`game` samples each test slice's P and Q paths once for every product."""

    PRODUCTS = pq_game.PRODUCTS

    def multi_product_ini(self, out, tmp_path, q_paths=400):
        ini = tmp_path / "multi.ini"
        ini.write_text(CONFIG_BODY.format(out=out).replace(
            "products = european", "products = " + ", ".join(self.PRODUCTS)
        ).replace("q_paths = 400", f"q_paths = {q_paths}"))
        return str(ini)

    @staticmethod
    def game_files(out):
        files = {}
        for name in sorted(os.listdir(out)):
            if name.startswith("game_"):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
        return files

    def test_multi_product_run_equals_single_product_runs(self, workspace, tmp_path):
        ini, out = workspace
        multi = copy_game_inputs(out, tmp_path / "multi")
        single = copy_game_inputs(out, tmp_path / "single")
        assert cli.main(["game", self.multi_product_ini(out, tmp_path),
                         "--out-dir", multi]) == 0
        for product in self.PRODUCTS:
            assert cli.main(["game", ini, "--out-dir", single,
                             "--product", product]) == 0
        got = self.game_files(multi)
        assert sorted(got) == sorted(
            [f"game_{p}_{tag}.csv" for p in self.PRODUCTS for tag in ("0.0", "0.2")]
            + [f"game_{p}.txt" for p in self.PRODUCTS]
            + [f"game_{p}_slices.csv" for p in self.PRODUCTS]
        )
        assert got == self.game_files(single)

    def test_one_sampler_run_serves_every_slice(self, workspace, tmp_path, monkeypatch):
        _, out = workspace
        runs, chunks = [], []
        real_sample, real_chunk = sampler.sample_requests, sampler._run_chunk

        def counting(model, config, requests, sched):
            requests = list(requests)
            runs.append((requests, config.n_paths))
            return real_sample(model, config, requests, sched)

        def chunk(model, sched, steps, eta, cond, streams):
            chunks.append(len(streams))
            return real_chunk(model, sched, steps, eta, cond, streams)

        monkeypatch.setattr(sampler, "sample_requests", counting)
        monkeypatch.setattr(sampler, "_run_chunk", chunk)
        dest = copy_game_inputs(out, tmp_path / "counted")
        ini = self.multi_product_ini(out, tmp_path)
        assert cli.main(["game", ini, "--out-dir", dest]) == 0
        cfg = rc.load_config(ini)
        test = mp.load_slices(os.path.join(out, "slices.npz")).test
        # one run asks for every test slice, in order, with its P seed
        seeds = [mp.child_seed(mp.child_seed(cfg.game.seed, idx), cli.P_SOURCE_SALT)
                 for idx in range(len(test))]
        assert len(runs) == 1
        requests, n_paths = runs[0]
        assert n_paths == cfg.game.p_paths
        assert [seed for _, seed in requests] == seeds
        assert [c for c, _ in requests] == [s.condition for s in test]
        # one chunk per group of consecutive slices that fill it, each row once
        per_chunk = sampler.SAMPLE_CHUNK // cfg.game.p_paths
        assert chunks == [min(per_chunk, len(test) - first) * n_paths
                          for first in range(0, len(test), per_chunk)]
        assert len(chunks) > 1

    def test_one_normal_stream_per_chunk_and_day(self, workspace, tmp_path, monkeypatch):
        # Q draws each chunk's normals once for every test slice: one stream
        # per (chunk, day) of the longest slice, however many slices there are
        _, out = workspace
        streams = []
        real = np.random.default_rng

        def counting(seed=None):
            streams.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        dest = copy_game_inputs(out, tmp_path / "counted")
        q_paths = q_pricer.CHUNK_PATHS + 1
        ini = self.multi_product_ini(out, tmp_path, q_paths)
        assert cli.main(["game", ini, "--out-dir", dest]) == 0
        cfg = rc.load_config(ini)
        test = mp.load_slices(os.path.join(out, "slices.npz")).test
        assert len(test) > 1
        q_seed = pq_game.slice_q_params(test[0], cfg.game).seed
        l_max = max(s.condition.n_trading for s in test)
        chunks = math.ceil(q_paths / q_pricer.CHUNK_PATHS)
        q_streams = [seed for seed in streams if isinstance(seed, list) and len(seed) == 3]
        assert q_streams == [[q_seed, chunk, day] for chunk in range(chunks)
                             for day in range(l_max)]


class TestGroupedPSource:
    """`game` samples consecutive test slices' P paths together, a chunk at a time."""

    def game_ini(self, out, tmp_path, p_paths):
        ini = tmp_path / f"p{p_paths}.ini"
        ini.write_text(CONFIG_BODY.format(out=out).replace(
            "p_paths = 32", f"p_paths = {p_paths}"))
        return str(ini)

    def test_full_chunk_slices_match_a_per_slice_source(
        self, workspace, tmp_path, monkeypatch
    ):
        # at p_paths >= SAMPLE_CHUNK every slice is sampled alone, as before
        _, out = workspace
        ini = self.game_ini(out, tmp_path, sampler.SAMPLE_CHUNK)
        grouped = copy_game_inputs(out, tmp_path / "grouped")
        assert cli.main(["game", ini, "--out-dir", grouped]) == 0

        def per_slice_source(model, sched, cfg, test_slices):
            def source(s, q_params):
                idx = next(i for i, t in enumerate(test_slices) if t is s)
                scfg = replace(cfg.sampler, n_paths=cfg.game.p_paths,
                               seed=mp.child_seed(mp.child_seed(cfg.game.seed, idx),
                                                  cli.P_SOURCE_SALT))
                return mp.to_prices(s.s0, sampler.sample_paths(model, scfg,
                                                               s.condition, sched))
            return source

        monkeypatch.setattr(cli, "_model_p_source", per_slice_source)
        alone = copy_game_inputs(out, tmp_path / "alone")
        assert cli.main(["game", ini, "--out-dir", alone]) == 0
        files = TestSharedPPaths.game_files(grouped)
        assert files and files == TestSharedPPaths.game_files(alone)

    def test_no_handed_out_p_array_is_alive_when_a_chunk_runs(
        self, workspace, tmp_path, monkeypatch
    ):
        _, out = workspace
        alive = []  # weak references to every P array handed out so far
        rows = []
        real_sample, real_chunk = sampler.sample_requests, sampler._run_chunk
        real_prices = mp.to_prices

        def watched(paths):
            alive.append(weakref.ref(paths))
            return paths

        def sampling(model, config, requests, sched):
            return map(watched, real_sample(model, config, requests, sched))

        def chunk(model, sched, steps, eta, cond, streams):
            assert all(ref() is None for ref in alive), "a handed-out P array is alive"
            rows.append(len(streams))
            return real_chunk(model, sched, steps, eta, cond, streams)

        monkeypatch.setattr(sampler, "sample_requests", sampling)
        monkeypatch.setattr(sampler, "_run_chunk", chunk)
        monkeypatch.setattr(mp, "to_prices", lambda s0, r: watched(real_prices(s0, r)))
        n_test = int(mp.read_manifest(os.path.join(out, "dataset.manifest"))["test_slices"])
        # two slices per chunk, then each slice over two chunks
        for p_paths, want in [
            (sampler.SAMPLE_CHUNK // 2, [sampler.SAMPLE_CHUNK] * (n_test // 2)
             + [sampler.SAMPLE_CHUNK // 2] * (n_test % 2)),
            (sampler.SAMPLE_CHUNK + 9, [sampler.SAMPLE_CHUNK, 9] * n_test),
        ]:
            alive.clear()
            rows.clear()
            dest = copy_game_inputs(out, tmp_path / f"held{p_paths}")
            assert cli.main(["game", self.game_ini(out, tmp_path, p_paths),
                             "--out-dir", dest]) == 0
            assert rows == want and len(alive) == 2 * n_test > 2

    def test_slice_out_of_order_is_data_error(self, workspace):
        ini, out = workspace
        cfg = replace(rc.load_config(ini), out_dir=out)
        split, _ = cli._load_slices(cfg)
        state = training.load_checkpoint(os.path.join(out, "checkpoint.npz"))
        source = cli._model_p_source(state.model(), state.sched, cfg, split.test)
        with pytest.raises(DataError, match="test-slice order"):
            source(split.test[1], None)


class TestRerunDeterminism:
    def test_every_artifact_is_byte_identical_on_rerun(self, workspace):
        ini, out = workspace
        run_chain(ini)
        before = {}
        for name in ARTIFACTS:
            with open(os.path.join(out, name), "rb") as fh:
                before[name] = fh.read()
        run_chain(ini)
        for name in ARTIFACTS:
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == before[name], name

    def test_game_artifacts_do_not_depend_on_threads(self, workspace, tmp_path):
        # 20,000 Q paths are two chunks; --threads 2 and 3 value each chunk's
        # test slices on two and three workers
        ini, out = workspace
        assert 20_000 > q_pricer.CHUNK_PATHS
        ini2 = write_ini_with(tmp_path, "game", "q_paths", 20_000)
        files = {}
        for threads in ("1", "2", "3"):
            dest = copy_game_inputs(out, tmp_path / f"threads{threads}")
            assert cli.main(["game", ini2, "--out-dir", dest, "--threads", threads]) == 0
            files[threads] = {name: read_bytes(dest, name) for name in os.listdir(dest)
                              if name.startswith("game_")}
        assert sorted(files["1"]) == ["game_european.txt", "game_european_0.0.csv",
                                      "game_european_0.2.csv", "game_european_slices.csv"]
        assert files["2"] == files["1"]
        assert files["3"] == files["1"]

    def test_out_dir_override_routes_everything(self, workspace, tmp_path):
        ini, out = workspace
        alt = str(tmp_path / "alt")
        assert cli.main(["prepare", ini, "--out-dir", alt]) == 0
        assert os.path.isfile(os.path.join(alt, "slices.npz"))
        with open(os.path.join(alt, "dataset.manifest"), "rb") as fh:
            alt_manifest = fh.read()
        with open(os.path.join(out, "dataset.manifest"), "rb") as fh:
            assert fh.read() == alt_manifest
