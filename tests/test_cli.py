"""Tests for the CLI: schema validation, exit codes, artifacts, manifests."""

import csv
import hashlib
import json
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
    "converge/convergence.csv": "f6d2ee9f6abb75a8726f04f3a309b7235438b2b25c5354a213a0736bc1bfb30a",
    "converge/convergence.json": "f12bacf6ad9e84967aebe0aae8b2abd758cb42b4e21b3787d3f50a657e5bad66",
    "couple/coupling.csv": "df4f942af0fad8317f9b47e7515a1f1884d495a0ad2c30bf1f2ac5fd13a131c9",
    "couple/coupling.json": "459bb290c3be78890206faf29ebe1cda0ed5536e824d706d50df3428a7345b79",
    "pde/density.csv": "01425e91d3c94f1d4f1a3ffcebe4f11355c46e2bb1fd1aec9b6adc7b4807fc4a",
    "pde/diagnostics.json": "4df03998eaa1d4f2beea429e6fd9c4699a4d133b7ecb0e459bbf1eba4c0abdb6",
    "pde/xpath.csv": "49f33eac188800d259ae56a4f8cbcbd2f1fdd324e8507a58ef6d0c8947496c9e",
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
