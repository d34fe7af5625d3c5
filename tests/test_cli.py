"""Tests for the CLI: schema validation, exit codes, artifacts, manifests."""

import csv
import hashlib
import json
from collections.abc import Mapping
from pathlib import Path

import jsonschema
import pytest

from almsim import cli, particle, pathint, presets

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "configs" / "golden"


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _base(command, preset="adaptation-1d", **numerics):
    cfg = {"schema_version": 1, "command": command,
           "model": {"preset": preset}, "seed": 5}
    if numerics:
        cfg["numerics"] = numerics
    return cfg


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_validate_preset_exits_zero(tmp_path):
    cfg = _write_cfg(tmp_path, _base("validate", preset="stp"))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    report = json.loads((out / "validation.json").read_text())
    assert all(report["passes"].values())
    manifest = json.loads((out / "manifest.json").read_text())
    want = hashlib.sha256((out / "validation.json").read_bytes()).hexdigest()
    assert manifest["artifacts"]["validation.json"] == want
    assert manifest["seed"] == 5
    assert manifest["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()).hexdigest()


def test_crlf_config_hash_is_file_sha256(tmp_path):
    # text mode reads CRLF as LF; the manifest hashes the bytes on disk
    cfg = tmp_path / "crlf.json"
    cfg.write_bytes(json.dumps(_base("validate", n_samples=200),
                               indent=1).replace("\n", "\r\n").encode())
    assert b"\r\n" in cfg.read_bytes()
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()).hexdigest()


def test_simulate_n_zero_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=0, T=1.0))
    assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


def test_missing_config_file(tmp_path):
    assert cli.run(tmp_path / "nope.json") == cli.EXIT_MISSING


def test_unknown_top_level_field_rejected(tmp_path):
    c = _base("validate")
    c["frobnicate"] = 1
    cfg = _write_cfg(tmp_path, c)
    assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


def test_unknown_numerics_field_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=5, T=1.0, bogus=3))
    assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


def test_unknown_preset_rejected(tmp_path):
    c = _base("validate")
    c["model"] = {"preset": "no-such-model"}
    cfg = _write_cfg(tmp_path, c)
    assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    assert cli.run(p, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


def test_wrong_schema_version_rejected(tmp_path):
    c = _base("validate")
    c["schema_version"] = 2
    cfg = _write_cfg(tmp_path, c)
    assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION


@pytest.mark.parametrize("bad", [
    _base("simulate", N=5, T=1.0, bogus=3),       # unknown field
    _base("simulate", N="five", T=1.0),          # wrong type
    _base("frobnicate"),                         # not in the command enum
])
def test_schema_error_message_matches_jsonschema_validate(bad, tmp_path,
                                                          capsys):
    # the validator built once per process reports the error that
    # jsonschema.validate picks
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, cli.CONFIG_SCHEMA)
    for _ in range(2):
        cfg = _write_cfg(tmp_path, bad)
        assert cli.run(cfg, out_override=tmp_path / "o") == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: invalid config: {want.value}\n"


def test_inline_model_unknown_key_rejected(tmp_path, capsys):
    # the key was dropped and the run went on with the model without it
    c = _base("validate")
    c["model"] = dict(presets.preset("plain-hawkes").to_dict(), seed=99)
    cfg = _write_cfg(tmp_path, c)
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: invalid config: unknown model fields ['seed']\n")
    assert not out.exists()


@pytest.mark.parametrize("command, field, law", [
    ("pathint", "mem", [["uniform", 0.0, -1.0]]),
    ("pde", "age", ["gamma", 1.0]),
    ("pde", "age", ["exponential", -1.0]),
], ids=["pathint-reversed-mem", "pde-gamma-age", "pde-negative-rate"])
def test_initial_law_it_cannot_evaluate_rejected(command, field, law,
                                                 tmp_path, capsys):
    # the pathint run wrote rho 0.0 and exited 0, the gamma law exited 5
    # with an IndexError, and the negative rate exited 2 only because its
    # density had no mass on the grid
    numerics = dict(T=0.2, dt=0.1, a_max=2.0, n_a=20, m_lo=[-1.0],
                    m_hi=[1.0], n_m=[20]) if command == "pde" else dict(
                        T=0.2, K_max=1)
    c = _base(command, **numerics)
    c["model"] = presets.preset("plain-hawkes").to_dict()
    c["model"]["init_law"][field] = law
    cfg = _write_cfg(tmp_path, c)
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    name = "age law" if field == "age" else "memory law"
    assert err.startswith(f"error: invalid config: {name} ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("part, edit, named", [
    ("H", {"family": "constant-random", "mean": float("nan"), "std": 0.1},
     "baseline needs a finite mean and a finite std >= 0"),
    ("init_law", {"bogus": 1}, "'bogus'"),
], ids=["nan-baseline", "unknown-init-law-key"])
def test_inline_model_part_it_cannot_use_rejected(part, edit, named, tmp_path,
                                                  capsys):
    # the NaN baseline exited 0 with no events and x_emp [NaN] in run.json;
    # the unknown init_law key was dropped
    c = _base("simulate", N=4, T=1.0)
    c["model"] = presets.preset("plain-hawkes").to_dict()
    c["model"][part].update(edit)
    cfg = _write_cfg(tmp_path, c)
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and named in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_inline_model_dict_accepted(tmp_path):
    c = _base("validate")
    c["model"] = presets.preset("stp").to_dict()
    cfg = _write_cfg(tmp_path, c)
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    assert (out / "validation.json").exists()


def _drop(path):
    def edit(model):
        *parents, key = path
        for p in parents:
            model = model[p]
        del model[key]
    return edit


@pytest.mark.parametrize("edit, field", [
    (_drop(("f", "c_m")), "f.c_m"),
    (_drop(("jump", "offset")), "jump.offset"),
    (_drop(("d",)), "d"),
    (lambda model: model["h"].update(bogus=1.0), "bogus"),
    (lambda model: model.update(psi=[1.0, 1.0]), "psi"),
], ids=["no-f.c_m", "no-jump.offset", "no-d", "unknown-h-key", "psi-list"])
def test_malformed_inline_model_rejected(tmp_path, capsys, edit, field):
    c = _base("validate")
    c["model"] = presets.preset("plain-hawkes").to_dict()
    edit(c["model"])
    cfg = _write_cfg(tmp_path, c)
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["out-is-file", "out-under-file",
                                  "config-is-dir", "config-not-utf8"])
def test_unusable_path_exits_with_one_error_line(case, tmp_path, capsys):
    # an unreadable config exits 4; a config that is not UTF-8 or an output
    # directory that cannot be made exits 2
    code = cli.EXIT_MISSING if case == "config-is-dir" else cli.EXIT_VALIDATION
    cfg = _write_cfg(tmp_path, _base("validate"))
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = {"out-is-file": blocker,
           "out-under-file": blocker / "out"}.get(case, tmp_path / "out")
    if case == "config-is-dir":
        cfg = tmp_path / "cfgdir"
        cfg.mkdir()
    elif case == "config-not-utf8":
        cfg.write_bytes(cfg.read_bytes().replace(b"validate", b"valid\xe9"))
    before = sorted(tmp_path.rglob("*"))
    assert cli.run(cfg, out_override=out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# artifacts and reproducibility


def test_simulate_artifacts_and_rerun_identical(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=10, T=1.0,
                                     save_times=[0.5, 1.0]))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.run(cfg, out_override=o1) == cli.EXIT_OK
    assert cli.run(cfg, out_override=o2) == cli.EXIT_OK
    for name in ("events.csv", "snapshots.csv", "run.json"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
    m1 = json.loads((o1 / "manifest.json").read_text())
    m2 = json.loads((o2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_snapshots_csv_cells_parse_as_floats(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=4, T=1.0,
                                     save_times=[0.5, 1.0]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    with open(out / "snapshots.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 8
    assert [float(cell) for row in rows for cell in row]
    assert {float(row[0]) for row in rows} == {0.5, 1.0}


@pytest.mark.parametrize("command, numerics, artifact", [
    ("pde", dict(save_times=[0.15, 0.5]), "density.csv"),  # between steps
    ("pde", dict(save_times=[0.3, 0.5]), "density.csv"),   # past T
    ("simulate", dict(N=4, save_times=[0.2, 0.5]), "snapshots.csv"),
])
def test_unreachable_save_time_rejected(command, numerics, artifact, tmp_path):
    num = dict(T=0.3, **numerics)
    if command == "pde":
        num.update(a_max=2.0, n_a=20, m_lo=[-1.0], m_hi=[1.0], n_m=[20],
                   dt=0.1)
    cfg = _write_cfg(tmp_path, _base(command, preset="plain-hawkes", **num))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    assert not (out / artifact).exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("m_hi", [-1.0, 1.0], ids=["reversed", "empty"])
def test_pde_empty_memory_box_exits_naming_the_axis(m_hi, tmp_path, capsys):
    # the box reached the march and was reported as "initial density has
    # nonpositive mass"
    cfg = _write_cfg(tmp_path, _base(
        "pde", preset="plain-hawkes", T=0.2, dt=0.1, a_max=2.0, n_a=20,
        m_lo=[1.0], m_hi=[m_hi], n_m=[20]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: memory axis 1 needs m_hi > m_lo, got [1, {m_hi:g}]\n"
    assert not (out / "density.csv").exists()


def test_events_csv_matches_direct_simulation(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=8, T=2.0))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    rec = particle.simulate_network(presets.preset("adaptation-1d"), 8, 2.0,
                                    seed=5, save_times=[2.0])
    with open(out / "events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(rec.events)
    for row, e in zip(rows, rec.events):
        assert float(row[0]) == e.time
        assert int(row[1]) == e.neuron
        assert float(row[2]) == e.age_before


def test_seed_override_reflected_in_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, _base("simulate", N=5, T=0.5))
    out = tmp_path / "out"
    assert cli.run(cfg, seed_override=77, out_override=out) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77


def test_pde_small_run_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, _base(
        "pde", preset="plain-hawkes", a_max=12.0, n_a=1200,
        m_lo=[-1.0], m_hi=[1.0], n_m=[100], T=0.5, dt=0.01,
        save_times=[0.5]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out, strict=True) == cli.EXIT_OK
    diag = json.loads((out / "diagnostics.json").read_text())
    assert max(abs(v - 1.0) for v in diag["mass_trace"]) <= 1e-3
    assert (out / "density.csv").exists()
    assert (out / "xpath.csv").exists()


def test_pathint_default_eval_point(tmp_path):
    cfg = _write_cfg(tmp_path, _base("pathint", preset="plain-hawkes",
                                     T=0.3, K_max=3))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    with open(out / "pathint.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "m1", "rho", "truncation_bound"]
    assert len(rows) == 2
    assert float(rows[1][3]) >= 0.0


def test_pathint_given_k_max_skips_tail_rule(tmp_path, monkeypatch):
    def no_tail(*args):
        raise AssertionError("jump_count_tail called with K_max given")

    monkeypatch.setattr(pathint, "jump_count_tail", no_tail)
    cfg = _write_cfg(tmp_path, _base("pathint", preset="plain-hawkes",
                                     T=0.3, K_max=3))
    assert cli.run(cfg, out_override=tmp_path / "out") == cli.EXIT_OK


@pytest.mark.parametrize("point", [
    [-0.25, 0.1, -0.5],         # negative time
    [0.25, -0.1, -0.5],         # negative age
    [float("nan"), 0.1, -0.5],  # NaN time, written as the JSON literal NaN
    [0.25],                     # no age, no memory
    [0.25, 0.1],                # no memory
    [0.25, 0.1, -0.5, 0.3],     # two memory coordinates on a d = 1 model
])
def test_pathint_malformed_eval_point_rejected(point, tmp_path):
    cfg = _write_cfg(tmp_path, _base("pathint", T=0.25, K_max=2,
                                     eval_points=[[0.25, 0.1, -0.5], point]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    assert not (out / "pathint.csv").exists()


def test_limit_nonconvergence_strict_exit(tmp_path):
    numerics = dict(T=1.0, dt=0.02, n_particles=200, tol=1e-15, max_iter=2)
    cfg = _write_cfg(tmp_path, _base("limit", **numerics))
    out1 = tmp_path / "o1"
    assert cli.run(cfg, out_override=out1, strict=True) == cli.EXIT_STRICT
    # non-strict: same warning is tolerated, artifacts and manifest written
    out2 = tmp_path / "o2"
    assert cli.run(cfg, out_override=out2) == cli.EXIT_OK
    assert (out2 / "xpath.csv").exists()
    assert (out2 / "picard.json").exists()
    assert (out2 / "manifest.json").exists()


@pytest.mark.parametrize("command", ["limit", "couple"])
def test_dt_not_dividing_T_exits_with_one_error_line(command, tmp_path, capsys):
    # the Picard path stopped short of T and the run exited 0 with it
    numerics = dict(T=1.0, dt=0.3, n_particles=50)
    if command == "couple":
        numerics.update(N_ladder=[5, 10], n_replicas=2)
    cfg = _write_cfg(tmp_path, _base(command, **numerics))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: dt must divide T\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["converge", "couple"])
def test_repeated_N_in_ladder_exits_with_one_error_line(command, tmp_path,
                                                        capsys):
    cfg = _write_cfg(tmp_path, _base(command, N_ladder=[20, 20, 40]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("error: invalid config: [20, 20, 40] has non-unique "
                        "elements")
    assert sum(line.startswith("error:") for line in lines) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, numerics, field", [
    ("simulate", {"T": 1.0}, "N"),
    ("simulate", {"N": 5}, "T"),
    ("limit", {"dt": 0.02}, "T"),
    ("simulate", {}, "numerics"),
], ids=["simulate-N", "simulate-T", "limit-T", "simulate-numerics"])
def test_missing_required_numerics_field_is_named(command, numerics, field,
                                                  tmp_path, capsys):
    # the command read the field as num[field] and printed only its name,
    # after it had made the output directory
    cfg = _write_cfg(tmp_path, _base(command, **numerics))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"error: invalid config: '{field}' is a required property"
    assert not out.exists()


def test_threads_accepted_by_every_command():
    validator = cli._config_validator()
    for command, (_, fields, required) in cli._COMMANDS.items():
        cfg = _base(command, threads=2, **{f: 1 for f in required})
        assert validator.is_valid(cfg), command


class _Recording(Mapping):
    """The numerics of a config, recording every key a handler looks up."""

    def __init__(self, data):
        self.data = data
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


_BOX = dict(a_max=2.0, n_a=20, m_lo=[-1.0], m_hi=[1.0], n_m=[20], T=0.2, dt=0.1)
_TINY_RUNS = {
    "validate": [dict(n_samples=200)],
    "simulate": [dict(N=4, T=0.5, save_times=[0.5])],
    "limit": [dict(T=0.2, dt=0.02, n_particles=50, tol=1e-2, max_iter=2)],
    "pde": [dict(_BOX, save_times=[0.2], stride_a=5, stride_m=5)],
    "pathint": [dict(T=0.2, K_max=1, eval_points=[[0.2, 0.1, -0.5]]),
                dict(T=0.2, tail_epsilon=0.1)],
    "converge": [dict(_BOX, t_eval=0.2, N_ladder=[5, 10], n_replicas=2,
                      n_directions=4)],
    "couple": [dict(T=0.2, dt=0.02, n_particles=50, tol=1e-2, max_iter=2,
                    N_ladder=[5, 10], n_replicas=2)],
}


@pytest.mark.parametrize("command, field, value", [
    ("simulate", "dt", 0.1), ("limit", "N_ladder", [5, 10]), ("pde", "tol", 1e-3),
    ("pathint", "dt", 0.1), ("converge", "save_times", [0.2]),
    ("couple", "save_times", [0.2]), ("validate", "T", 1.0),
], ids=["simulate-dt", "limit-N_ladder", "pde-tol", "pathint-dt",
        "converge-save_times", "couple-save_times", "validate-T"])
def test_unread_numerics_field_rejected(command, field, value, tmp_path,
                                        capsys):
    # the command ran and ignored the field
    numerics = dict(_TINY_RUNS[command][0], **{field: value})
    cfg = _write_cfg(tmp_path, _base(command, preset="plain-hawkes", **numerics))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("error: invalid config: Additional properties are not "
                        f"allowed ('{field}' was unexpected)")
    assert sum(line.startswith("error:") for line in lines) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_numerics_table_matches_handler(command, tmp_path):
    # a handler that looks up a field its table does not list would never
    # see it, since the schema rejects it; a listed field that the handler
    # never looks up would be accepted and ignored
    handler, fields, _ = cli._COMMANDS[command]
    read = set()
    for i, numerics in enumerate(_TINY_RUNS[command]):
        cfg = _base(command, preset="plain-hawkes", **numerics)
        cli._config_validator().validate(cfg)
        num = _Recording(numerics)
        out = tmp_path / str(i)
        out.mkdir()
        try:
            handler(presets.preset("plain-hawkes"), num, 5, out)
        except cli._StrictWarning:
            pass
        assert num.read <= set(fields), num.read - set(fields)
        read |= num.read
    assert read == set(fields)


def test_key_error_in_a_command_exits_downstream(tmp_path, monkeypatch, capsys):
    # a KeyError inside a command is a bug, not an invalid config: every
    # field a handler reads without a default is required by the schema
    def lookup_bug(spec, num, seed, outdir):
        return {}["n_samples"]

    monkeypatch.setitem(cli._COMMANDS, "validate",
                        (lookup_bug, *cli._COMMANDS["validate"][1:]))
    cfg = _write_cfg(tmp_path, _base("validate"))
    assert cli.run(cfg, out_override=tmp_path / "out") == cli.EXIT_DOWNSTREAM
    assert capsys.readouterr().err == "error: KeyError: 'n_samples'\n"


def test_picard_json_pinned(tmp_path):
    # the record of a small limit run, with sorted keys; the keys were once
    # written in the field order of PicardReport, with the same values
    cfg = _write_cfg(tmp_path, _base("limit", T=1.0, dt=0.02, n_particles=200,
                                     tol=1e-3, max_iter=5))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    data = (out / "picard.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "a452c6a3f13ba53d62801b7b0adf462a7677bfa6d3f2e852cbf1040c0eaa9c1d")
    assert json.loads(data) == {
        "converged": True,
        "deltas": [0.3394204152703088, 0.035560755481351625,
                   0.003085285063395393, 0.00018211904846232585],
        "final_delta": 0.00018211904846232585,
        "iterations": 4,
        "n_particles": 200,
    }


def test_pathint_integer_cells_of_the_config_print_as_floats(tmp_path):
    # the table writer keeps int cells as they are, so the command passes
    # the config's t and a as floats
    cfg = _write_cfg(tmp_path, _base("pathint", preset="plain-hawkes", T=1,
                                     K_max=1, eval_points=[[1, 2, 0]]))
    out = tmp_path / "out"
    assert cli.run(cfg, out_override=out) == cli.EXIT_OK
    with open(out / "pathint.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:3] == ["1.0", "2.0", "0.0"]


def test_strict_warning_manifest_lists_only_this_run(tmp_path):
    # a file left in the output directory by something else must not be
    # checksummed into the manifest of a run that ends with a warning
    numerics = dict(T=1.0, dt=0.02, n_particles=200, tol=1e-15, max_iter=1)
    cfg = _write_cfg(tmp_path, _base("limit", **numerics))
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.csv").write_text("left over\n")
    assert cli.run(cfg, out_override=out, strict=True) == cli.EXIT_STRICT
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["picard.json", "xpath.csv"]


# ---------------------------------------------------------------------------
# argv entry point and thread invariance


def test_main_argv_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, _base("validate"))
    out = tmp_path / "out"
    code = cli.main([str(cfg), "--out", str(out), "--seed", "9"])
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


# sha256 of every artifact of each golden config but the manifest, which
# records the wall time of the run
GOLDEN_SHA256 = {
    "converge/convergence.csv": "aeeb5fc067da6a2ea7bae942506a1e6c2a9459445c6e0a5be009d9322898905a",
    "converge/convergence.json": "3f1725859716e4972e3f3ff3b0ab51899d9be889a9babd64d2553a6701301fe6",
    "couple/coupling.csv": "6376361eae8c8260d6028fe1b2d1099bb69830c00bdd0d024134af2a7758901e",
    "couple/coupling.json": "b40bd2675e377dc256d64cc84c39412104537dc441ff4e80aa2640ce9cebdcac",
    "pde/density.csv": "82067d9bffaaf5e2842862f416155279201fdf9b208df4adaed3bb03dd3945c5",
    "pde/diagnostics.json": "d142c2639e421c5453a43bf81b1fe38dc90935049e8b112ca913bb3fed14182f",
    "pde/xpath.csv": "987b82b8c427874e7825ba3d06cc420b77e8f964041b181b9a2c71af38eb128b",
    "simulate/events.csv": "2b7954b64f8808c7cd91215c096e48d1b43c9549203308cd29bdcfb7b8dec784",
    "simulate/run.json": "bddf326d8940db1bd480b569ea9af77dc25831477349bac0caafb8ff7619e76d",
    "simulate/snapshots.csv": "ca86f8969e796e6ce9cff507a05f8e57fe07ff78d700eda18e2ce423d12f43ae",
}


def test_golden_artifacts_pinned(tmp_path):
    got = {}
    for cfg in sorted(GOLDEN_DIR.glob("*.json")):
        out = tmp_path / cfg.stem
        assert cli.run(cfg, out_override=out) == cli.EXIT_OK
        for p in out.iterdir():
            if p.name != "manifest.json":
                got[f"{cfg.stem}/{p.name}"] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256


def test_couple_threads_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path, _base(
        "couple", preset="plain-hawkes", T=1.0, dt=0.02,
        n_particles=500, N_ladder=[10, 20], n_replicas=3))
    o1, o8 = tmp_path / "t1", tmp_path / "t8"
    assert cli.run(cfg, out_override=o1, threads_override=1) == cli.EXIT_OK
    assert cli.run(cfg, out_override=o8, threads_override=8) == cli.EXIT_OK
    assert (o1 / "coupling.csv").read_bytes() == (o8 / "coupling.csv").read_bytes()
    assert (o1 / "coupling.json").read_bytes() == (o8 / "coupling.json").read_bytes()
