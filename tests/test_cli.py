import contextlib
from collections.abc import Mapping
from pathlib import Path

import pytest

from cknlab import cli, measure, moser
from cknlab.errors import GridError, LabError
from cknlab.cli import list_experiments, main, parse_config
from cknlab.params import validate


def write_cfg(tmp_path, name, extra="", fname="exp.cfg"):
    p = tmp_path / fname
    p.write_text(f"experiment={name}\noutput_dir={tmp_path}\n" + extra)
    return str(p)


def test_list_contains_registry_entries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("measure_identities", "regularity_report", "lemma_a2_property",
                 "mms_convergence", "moser_ladder"):
        assert name in out
    assert out == list_experiments() + "\n"


def test_unknown_experiment_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "no_such_thing", "seed=1\n")
    assert main(["run", cfg]) == 1
    assert "unknown_experiment" in capsys.readouterr().err


def test_missing_seed_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "measure_identities")
    assert main(["run", cfg]) == 1
    assert "seed" in capsys.readouterr().err


def test_bad_config_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("experiment measure_identities\n")
    assert main(["run", str(p)]) == 1


def test_repeated_key_exit_1(tmp_path, capsys):
    """A key given twice is a config error naming its line: no run takes
    one of the values and echoes the other."""
    cfg = write_cfg(tmp_path, "measure_identities",
                    "seed=1\nn_combos=0\nn_combos=3\n")
    assert main(["run", cfg]) == 1
    assert ("error: invalid_config: line 5 gives key `n_combos` a second time"
            in capsys.readouterr().err)
    assert not any(tmp_path.glob("*.csv"))


def test_missing_config_file():
    assert main(["run", "/nonexistent/x.cfg"]) == 1


def test_measure_identities_smoke(tmp_path):
    cfg = write_cfg(tmp_path, "measure_identities", "seed=3\nn_combos=10\n")
    assert main(["run", cfg]) == 0
    report = (tmp_path / "measure_report.csv").read_text()
    manifest = report.splitlines()[0]
    assert manifest.startswith("# experiment=measure_identities n_combos=10 ")
    assert manifest.count("experiment=") == 1
    assert "closed_form,quadrature" in report.splitlines()[1]


def test_mms_convergence_smoke(tmp_path):
    cfg = write_cfg(
        tmp_path, "mms_convergence",
        "params.N=3\nparams.a=0\nparams.b=0\ngrid.n=64\nlevels=2\n")
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "mms_report.csv").read_text().splitlines()
    assert lines[1] == "level,h,max_error,observed_order"
    assert len(lines) == 5


def test_alpha_h_and_regularity_smoke(tmp_path):
    cfg = write_cfg(tmp_path, "alpha_h_estimation",
                    "params.N=3\nparams.a=0\nparams.b=0\n", "a.cfg")
    assert main(["run", cfg]) == 0
    cfg2 = write_cfg(tmp_path, "regularity_report",
                     "params.N=3\nparams.a=0\nparams.b=0\nseed=5\ngrid.n=256\n",
                     "r.cfg")
    assert main(["run", cfg2]) == 0
    txt = (tmp_path / "regularity_report.txt").read_text()
    keys = [ln.split("=")[0] for ln in txt.splitlines()[1:]]
    assert keys == ["alpha_measured", "alpha_predicted_sup", "limiting_branch",
                    "holder_seminorm", "sup_norm", "pass"]
    assert "pass=true" in txt


def test_determinism_byte_identical(tmp_path):
    extra = "params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=11\nn_balls=15\n"
    cfg = write_cfg(tmp_path, "lemma_a1_envelope", extra)
    assert main(["run", cfg]) == 0
    first = (tmp_path / "lemma_a1_report.csv").read_bytes()
    assert main(["run", cfg]) == 0
    assert (tmp_path / "lemma_a1_report.csv").read_bytes() == first


def test_lemma_a2_dump_trials(tmp_path):
    extra = ("params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=2\n"
             "n_envelopes=2\nn_trials=5\n")
    cfg = write_cfg(tmp_path, "lemma_a2_property", extra)
    assert main(["run", cfg, "--dump-trials"]) == 0
    assert (tmp_path / "lemma_a2_report.csv").exists()
    assert (tmp_path / "lemma_a2_trials.csv").exists()


def test_parse_config_sections_and_comments(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nexperiment=x\nsolver.tol = 1e-10\n\nseed=4\n")
    cfg = parse_config(str(p))
    assert cfg == {"experiment": "x", "solver.tol": "1e-10", "seed": "4"}


def test_misspelled_key_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "alpha_h_estimation",
                    "params.N=3\nparams.a=0\nparams.b=0\ngrid.nn=100\n")
    assert main(["run", cfg]) == 1
    assert "invalid_config: unknown key `grid.nn`" in capsys.readouterr().err
    assert not (tmp_path / "alpha_h_report.csv").exists()


COUNT_KEY_EXPERIMENTS = {"levels": "mms_convergence",
                         "n_combos": "measure_identities",
                         "n_cases": "harmonic_replacement",
                         "n_balls": "lemma_a1_envelope",
                         "n_envelopes": "lemma_a2_property",
                         "n_trials": "lemma_a2_property"}


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key", sorted(COUNT_KEY_EXPERIMENTS))
def test_count_key_below_one_exit_1(tmp_path, capsys, key, value):
    """A count of 0 would run the experiment's gate on nothing and pass."""
    name = COUNT_KEY_EXPERIMENTS[key]
    cfg = write_cfg(tmp_path, name, A335 + f"seed=1\n{key}={value}\n")
    assert main(["run", cfg]) == 1
    assert (f"invalid_config: `{key}` must be >= 1, got '{value}'"
            in capsys.readouterr().err)
    assert not any(tmp_path.glob("*.csv"))


# (experiment, value) -> the error after `invalid_config: `; each of these
# is rejected before the run, by the grid, the weight parameters or the
# experiment's declared check
REJECTED_VALUES = {
    ("harmonic_replacement", "grid.n=1"): "too_few_cells: ",
    ("harmonic_replacement", "grid.spacing=foo"): "invalid_spacing: ",
    ("harmonic_replacement", "grid.r_min=-1"): "invalid_radial_extent: ",
    ("harmonic_replacement", "grid.r_max=0"): "invalid_radial_extent: ",
    ("harmonic_replacement", "params.a=0.6"): "a_out_of_range: ",
    ("harmonic_replacement", "params.N=2"): "dimension_too_small: ",
    ("mms_convergence", "grid.n=1"): "too_few_cells: ",
    ("alpha_h_estimation", "grid.n=1"): "too_few_cells: ",
    ("dilation_symmetry", "grid.n=1"): "too_few_cells: ",
    ("moser_ladder", "grid.n=1"): "too_few_cells: ",
    ("dilation_symmetry", "lambda=0"): "`lambda` must be > 0, got '0'",
    ("dilation_symmetry", "lambda=-2"): "`lambda` must be > 0, got '-2'",
    ("regularity_report", "alpha_h=-5"):
        "`alpha_h` must be in (0, 1], got '-5'",
    ("lemma_a1_envelope", "eps_s=0.5"): "s_too_small: ",
    ("lemma_a1_envelope", "eps_s=-1"): "s_too_small: ",
    ("alpha_h_estimation", "seed=abc"): "bad value for `seed`: 'abc'",
    ("mms_convergence", "grid.r_max=inf"): "bad value for `grid.r_max`: 'inf'",
    ("harmonic_replacement", "grid.r_max=inf"):
        "bad value for `grid.r_max`: 'inf'",
    ("dilation_symmetry", "lambda=inf"): "bad value for `lambda`: 'inf'",
    ("dilation_symmetry", "lambda=nan"): "bad value for `lambda`: 'nan'",
    ("harmonic_replacement", "params.s=nan"): "bad value for `params.s`: 'nan'",
    ("regularity_report", "params.s=1"): "s_too_small: ",
    ("regularity_report", "grid.r_min=0.1"):
        "`grid.r_min` must be 0: the report's balls are centred at the "
        "origin, got '0.1'",
    ("alpha_h_estimation", "center=5"):
        "`center` must be in [grid.r_min, grid.r_max], got '5'",
    ("measure_identities", "tol=0"): "`tol` must be > 0, got '0'",
    ("measure_identities", "tol=-1"): "`tol` must be > 0, got '-1'",
    ("moser_ladder", "margin0=-1"):
        "`margin0` must be in [0, grid.r_max / 2), got '-1'",
    ("moser_ladder", "margin0=5"):
        "`margin0` must be in [0, grid.r_max / 2), got '5'",
}


@pytest.mark.parametrize(
    "name,line", sorted(REJECTED_VALUES),
    ids=[line if name == "harmonic_replacement" else f"{name}-{line}"
         for name, line in sorted(REJECTED_VALUES)])
def test_rejected_grid_or_params_value_exit_1(tmp_path, capsys, name, line):
    """A value that the grid, the weight parameters or a key's declared
    check rejects is a config error, not a scientific failure, also where
    the run would not read it."""
    key = line.partition("=")[0]
    base = "".join(f"{kv}\n" for kv in (A335 + "seed=1\n").splitlines()
                   if kv.partition("=")[0] != key)
    cfg = write_cfg(tmp_path, name, base + f"{line}\n")
    assert main(["run", cfg]) == 1
    assert (f"error: invalid_config: {REJECTED_VALUES[name, line]}"
            in capsys.readouterr().err)
    assert not any(tmp_path.glob("*.csv"))


def test_common_keys_accepted_by_non_randomized_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "alpha_h_estimation",
                    "params.N=3\nparams.a=0\nparams.b=0\nparams.s=inf\nseed=7\n")
    assert main(["run", cfg]) == 0


class RecordingConfig(Mapping):
    """A typed config that notes each key read from it."""

    def __init__(self, cfg: dict):
        self.cfg, self.read = cfg, set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.cfg[key]

    def __iter__(self):
        return iter(self.cfg)

    def __len__(self):
        return len(self.cfg)


def test_declared_keys_are_the_keys_read():
    """Each experiment, run at its defaults, reads every key it declares:
    `params.*` and `grid.*` through the `params` and `grid` built from
    them, no key declared unread (default None), and not `output_dir`,
    which `run` reads.  A key it does not declare is not in its config."""
    raw = dict(kv.split("=") for kv in (A335 + "seed=1\n").split())
    for name, exp in cli.EXPERIMENTS.items():
        cfg = RecordingConfig(cli._typed_config(exp, {"experiment": name,
                                                      **raw}))
        with contextlib.suppress(LabError):  # moser_ladder's known failure
            exp.run(cfg)
        read = {k.split(".")[0] if k.startswith(("params.", "grid.")) else k
                for k, key in exp.keys.items()
                if key.default is not None and k != "output_dir"}
        assert cfg.read == read, name


SCHEMA_DOC = (Path(__file__).resolve().parent.parent / "docs" / "schemas"
              / "README.md")
REGULARITY_KEYS = ["alpha_measured", "alpha_predicted_sup", "limiting_branch",
                   "holder_seminorm", "sup_norm", "pass"]


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_reports_follow_the_declared_schema(tmp_path, capsys, name):
    """Every written file has the manifest line and the declared header and
    width; a run writes all its declared reports unless it ends in
    `failure[...]`, which writes none."""
    exp = cli.EXPERIMENTS[name]
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment={name}\noutput_dir={out}\nparams.N=3\n"
                   "params.a=0.3\nparams.b=0.5\nseed=1\n")
    code = main(["run", str(cfg), "--dump-trials"])
    err = capsys.readouterr().err
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if "failure[" in err:
        assert code == 2 and written == []
    else:
        assert written == sorted(exp.reports)
    for fname in written:
        lines = (out / fname).read_text().splitlines()
        assert lines[0].startswith(f"# experiment={name} ")
        header = exp.reports[fname]
        if header is None:
            assert [ln.split("=")[0] for ln in lines[1:]] == REGULARITY_KEYS
            continue
        assert lines[1] == header
        width = len(header.split(","))
        assert all(len(ln.split(",")) == width for ln in lines[2:]), fname


def test_failed_run_writes_no_report(tmp_path, monkeypatch):
    """A `LabError` after the first report's data is ready still leaves no
    file behind."""
    def failing_profile(*args, **kwargs):
        raise GridError("ball_too_small", "injected")

    monkeypatch.setattr(cli, "campanato_profile", failing_profile)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment=regularity_report\noutput_dir={out}\n"
                   "params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=1\n")
    assert main(["run", str(cfg)]) == 2
    assert not out.exists()


def test_schema_doc_names_every_declared_report():
    doc = SCHEMA_DOC.read_text()
    for exp in cli.EXPERIMENTS.values():
        for fname, header in exp.reports.items():
            assert f"`{fname}`" in doc
            if header is not None:
                assert f"`{header}`" in doc, header


def test_schema_doc_names_every_declared_key():
    """Each experiment's section lists every key it accepts."""
    sections = {part.split()[0]: part for part in
                SCHEMA_DOC.read_text().split("\n### ")[1:]}
    for name, exp in cli.EXPERIMENTS.items():
        for key in exp.keys:
            assert f"`{key}`" in sections[name], (name, key)


A335 = "params.N=3\nparams.a=0.3\nparams.b=0.5\n"
# worst_margin per envelope of lemma_a2_property at (3,0.3,0.5), seed 1,
# frozen from the per-trial loop that the batched trials replaced; every
# envelope had 0 violations
A2_WORST_MARGINS_SEED1 = [
    0.99837775243325722, 0.99977558214815287, 0.99928431820725161,
    0.99969648591708393, 0.99955918632221408, 0.9999351889501038,
    0.99981018982774039, 0.99987618781907894, 0.99879141601103405,
    0.99977946225628012, 0.99943937211036205, 0.99983882517171196,
    0.99978047934587055, 0.99967664483373853, 0.99842754017692403,
    0.99981421950554961, 0.9993112180116942, 0.99984189689392688,
    0.99869141948712736, 0.99992756100449021]


def test_lemma_a2_property_seed1_frozen(tmp_path):
    cfg = write_cfg(tmp_path, "lemma_a2_property", A335 + "seed=1\n")
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "lemma_a2_report.csv").read_text().splitlines()[2:]
    rows = [ln.split(",") for ln in lines]
    assert [int(r[5]) for r in rows] == [0] * 20
    assert [float(r[6]) for r in rows] == pytest.approx(A2_WORST_MARGINS_SEED1,
                                                        rel=1e-12)


def test_lemma_a2_property_seed202_overflows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lemma_a2_property", A335 + "seed=202\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "failure[constant_overflow]: C_d^3 overflows for doubling constant "
        "2.6633669838224872e+110\n")


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Count batched and one-ball off-centre quadrature calls."""
    calls = {"batched": 0, "one_ball": 0}
    batched, one_ball = measure.ball_weight_integrals, measure.ball_weight_integral

    def counting_batched(*args, **kwargs):
        calls["batched"] += 1
        return batched(*args, **kwargs)

    def counting_one_ball(*args, **kwargs):
        calls["one_ball"] += 1
        return one_ball(*args, **kwargs)

    for mod in (measure, moser):
        monkeypatch.setattr(mod, "ball_weight_integrals", counting_batched)
    monkeypatch.setattr(measure, "ball_weight_integral", counting_one_ball)
    return calls


def test_lemma_experiments_batch_their_quadrature(tmp_path, quadrature_calls):
    cfg = write_cfg(tmp_path, "lemma_a1_envelope", A335 + "seed=1\n", "a1.cfg")
    assert main(["run", cfg]) == 0
    assert quadrature_calls == {"batched": 2, "one_ball": 0}
    # envelopes 1 and 3 are off-centre, 0 and 2 centred
    cfg = write_cfg(tmp_path, "lemma_a2_property",
                    A335 + "seed=1\nn_envelopes=4\n", "a2.cfg")
    assert main(["run", cfg]) == 0
    assert quadrature_calls == {"batched": 4, "one_ball": 0}
    params = validate(3, 0.3, 0.5)
    moser.MeasureTable(params, (0.5, 0.0, 0.0), 0.01, 1.0)
    moser.MeasureTable(params, (0.0, 0.0, 0.0), 0.01, 1.0)
    assert quadrature_calls == {"batched": 5, "one_ball": 0}
