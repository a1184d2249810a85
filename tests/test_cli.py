"""CLI tests: reproducible outputs, sidecars, exit codes, bundle manifest."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wigpath
from wigpath import cli
from wigpath.checks import sign_rows
from wigpath.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK, main
from wigpath.integrate import MonteCarloSpec, RealnessError, wigner_montecarlo
from wigpath.saddle import RegionError, solve_saddle, wigner_saddle
from wigpath.states import FamilyParams, wigner_number, wigner_poisson


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell(x):
    # the documented cell of one output number: 17 significant digits, or empty
    return "" if x is None else format(x, ".17g")


def table_text(header, rows, fmt):
    # the documented bytes of a table, assembled row by row
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    return json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"


def exit_code(argv):
    # main's return value, or the code of the SystemExit argparse raises
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_package_exports_resolve():
    missing = [name for name in wigpath.__all__ if not hasattr(wigpath, name)]
    assert not missing
    assert len(set(wigpath.__all__)) == len(wigpath.__all__)


def test_profile_number_exact(tmp_path):
    out = tmp_path / "n10.csv"
    code = main(
        [
            "profile", "--state", "number", "--n", "10", "--method", "exact",
            "--rmin", "0", "--rmax", "4", "--points", "400", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["r", "W", "method", "stderr", "region"]
    assert len(rows) == 400
    assert float(rows[0][1]) == pytest.approx(2.0 / math.pi, rel=1e-12)
    rs = [float(row[0]) for row in rows]
    assert rs == sorted(rs)
    meta = json.loads((tmp_path / "n10.csv.meta.json").read_text())
    assert meta["config"]["points"] == 400
    assert meta["artifact_version"]
    assert "wall_time_seconds" in meta


def test_profile_reproducible_bytes(tmp_path):
    args = [
        "profile", "--state", "family", "--L", "2", "--N", "1.5",
        "--method", "mc", "--samples", "20000", "--seed", "5", "--points", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2), "--workers", "3"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_profile_poisson_positive(tmp_path):
    out = tmp_path / "p.csv"
    main(
        [
            "profile", "--state", "poisson", "--N", "10.5", "--method", "exact",
            "--rmax", "5", "--points", "60", "--out", str(out),
        ]
    )
    _, rows = read_csv(out)
    assert all(float(row[1]) > 0.0 for row in rows)


def test_profile_quadrature_matches_spectral(tmp_path):
    common = ["profile", "--state", "family", "--L", "3", "--N", "1.5", "--points", "20"]
    q, s = tmp_path / "q.csv", tmp_path / "s.csv"
    main(common + ["--method", "quadrature", "--M", "128", "--out", str(q)])
    main(common + ["--method", "spectral", "--out", str(s)])
    _, qr = read_csv(q)
    _, sr = read_csv(s)
    for a, b in zip(qr, sr):
        assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-6)


def test_profile_mc_has_stderr_column(tmp_path):
    out = tmp_path / "mc.csv"
    main(
        [
            "profile", "--state", "family", "--L", "2", "--N", "1.5", "--method", "mc",
            "--samples", "10000", "--points", "4", "--out", str(out),
        ]
    )
    _, rows = read_csv(out)
    assert all(row[3] != "" and float(row[3]) >= 0.0 for row in rows)


def test_profile_saddle_emits_region_notes(tmp_path):
    out = tmp_path / "sad.csv"
    # grid fine enough to land inside the excluded annulus around sqrt(10.5)
    main(
        [
            "profile", "--state", "number", "--n", "10", "--method", "saddle",
            "--rmin", "0", "--rmax", "4", "--points", "2001", "--out", str(out),
        ]
    )
    _, rows = read_csv(out)
    regions = {row[4] for row in rows}
    assert "turning" in regions
    assert "origin" in regions
    empty_w = [row for row in rows if row[4] != ""]
    assert all(row[1] == "" for row in empty_w)


def test_profile_invalid_combination_exits_2(tmp_path, capsys):
    code = main(
        ["profile", "--state", "family", "--L", "2", "--N", "1.5", "--method", "exact"]
    )
    assert code == EXIT_CONFIG_ERROR
    assert "spectral" in capsys.readouterr().err


def test_profile_number_wkb_exits_2(tmp_path, capsys):
    out = tmp_path / "wkb.csv"
    code = main(["profile", "--state", "number", "--n", "10", "--method", "wkb", "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    assert "exact, saddle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("from_file", [False, True], ids=["flags", "config"])
def test_profile_without_state_exits_2(tmp_path, monkeypatch, capsys, from_file):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    argv = ["profile", "--n", "2", "--method", "exact"]
    if from_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nmethod = exact\n")
        argv = ["profile", "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "error: profile needs --state (poisson, number, family)" in err
    assert "None" not in err
    assert not (tmp_path / "out").exists()


FAMILY_2_15 = ["profile", "--state", "family", "--L", "2", "--N", "1.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # ValueErrors of the input stage
        ([*FAMILY_2_15, "--method", "mc", "--samples", "10"], "need at least 1e3 samples"),
        ([*FAMILY_2_15, "--method", "quadrature", "--M", "100"], "must be a power of two"),
        (["profile", "--state", "family", "--L", "0", "--N", "1.5", "--method", "spectral"],
         "L must be a positive integer"),
        (["profile", "--state", "family", "--L", "4", "--N", "1.5", "--method", "quadrature",
          "--M", "1024"], "M^L = 1024^4 exceeds the evaluation budget"),
        ([*FAMILY_2_15, "--method", "mc", "--workers", "0"], "workers must be >= 1"),
        ([*FAMILY_2_15, "--method", "mc", "--batch", "0"], "batch_size must be positive"),
        ([*FAMILY_2_15, "--method", "spectral", "--points", "-1"], "must be non-negative"),
        # the state argument
        (["profile", "--state", "poisson", "--method", "exact"], "'poisson' needs a positive --N"),
        (["profile", "--state", "number", "--method", "exact"],
         "'number' needs a non-negative --n"),
        (["profile", "--state", "family", "--N", "1.5", "--method", "spectral"],
         "'family' needs --L and --N"),
        # the commands' own checks
        (["profile", "--state", "number", "--n", "3", "--method", "saddle", "--L", "0"],
         "the number-state saddle needs --L >= 1"),
        (["figure2", "--n", "0"], "figure2 needs n >= 1"),
        (["figure2", "--L", "0"], "figure2 needs --L >= 1"),
        (["saddle-table", "--n", "-1"], "saddle-table needs --n >= 0"),
        (["saddle-table", "--n", "3", "--L", "1"], "saddle-table needs --L >= 2"),
        (["saddle-table", "--n", "3", "--smin", "-1"], "needs --smin and --smax >= 0"),
    ],
    ids=[
        "samples", "M", "family-L", "budget", "workers", "batch", "points",
        "poisson-N", "number-n", "family-L-N", "saddle-L", "figure2-n", "figure2-L",
        "table-n", "table-L", "table-smin",
    ],
)
def test_config_error_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_profile_config_line_without_equals_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state = number\nn 2\nmethod = exact\n")
    assert main(["profile", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert f"{cfg}:2: expected key=value, got 'n 2'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "state = number\nn = 2\nmethod = exact\npoints = 11\nrmax = 3.0\n# comment\n"
    )
    out = tmp_path / "cfg.csv"
    code = main(["profile", "--config", str(cfg), "--points", "5", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 5  # command line wins over the file
    assert float(rows[-1][0]) == pytest.approx(3.0)

    # a key named after the destination loses to its flag as well
    cfg.write_text("state = number\nn = 2\nmethod = exact\npoints = 3\nr_max = 9.0\n")
    assert main(["profile", "--config", str(cfg), "--rmax", "3", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert [float(row[0]) for row in rows] == pytest.approx([0.0, 1.5, 3.0])


def test_profile_config_file_bad_type_exits_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state = number\nn = 2\nmethod = exact\npoints = 1.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "--points" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--state", "number", "--n", "2", "--method", "exact", "--points", "1.5"])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, method",
    [("format = xml", "exact"), ("normalization = bogus", "saddle"), ("state = bogus", "exact")],
)
def test_profile_config_file_value_outside_choices_exits_2(
    tmp_path, monkeypatch, capsys, line, method
):
    # argparse checks choices on flags only; a file value meets the same choices
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"state = number\nn = 2\nmethod = {method}\n{line}\n")
    assert main(["profile", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_sidecar_records_every_option_merged(tmp_path):
    parser, _ = cli.build_parser()
    dests = set(vars(parser.parse_args(["profile"]))) - {"config"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = number\nn = 2\nmethod = exact\npoints = 11\nrmax = 3.0\nformat = json\n")
    out = tmp_path / "cfg.json"
    assert main(["profile", "--config", str(cfg), "--points", "5", "--out", str(out)]) == EXIT_OK
    config = json.loads((tmp_path / "cfg.json.meta.json").read_text())["config"]
    assert set(config) == dests
    assert config["points"] == 5  # the flag wins over the file
    assert (config["state"], config["n"], config["method"]) == ("number", 2, "exact")
    assert (config["r_max"], config["fmt"]) == (3.0, "json")
    assert config["samples"] == 100_000  # in neither: the subparser's default


def test_profile_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["profile", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert main(["profile", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG_ERROR


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RealnessError("imaginary residue")

    monkeypatch.setattr(cli, "wigner_quadrature", broken)
    code = main(
        ["profile", "--state", "family", "--L", "2", "--N", "1.5", "--method", "quadrature",
         "--points", "3", "--out", str(tmp_path / "q.csv")]
    )
    assert code == EXIT_INTERNAL_ERROR
    assert EXIT_INTERNAL_ERROR not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR)
    assert "RealnessError" in capsys.readouterr().err


def test_quadrature_kernel_underflow_exits_3(tmp_path, capsys):
    # every kernel entry underflows at L = 1, N = 400.5, M = 1024; the CLI
    # must not write W = 0.0 there (the Poisson closed form gives 6.3e-3)
    out = tmp_path / "q.csv"
    r = str(math.sqrt(400.5))
    code = main(
        ["profile", "--state", "family", "--L", "1", "--N", "400.5", "--method", "quadrature",
         "--M", "1024", "--rmin", r, "--rmax", r, "--points", "1", "--out", str(out)]
    )
    assert code == EXIT_INTERNAL_ERROR
    assert "FloatingPointError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # spectral overflows to nan outside the circle from r = 19
        ["--state", "family", "--L", "2", "--N", "100.5", "--method", "spectral",
         "--rmin", "18", "--rmax", "20", "--points", "5"],
        # the Laguerre recurrence of the number state overflows to nan
        ["--state", "number", "--n", "400", "--method", "exact",
         "--rmin", "19", "--rmax", "21", "--points", "3"],
    ],
    ids=["spectral", "number"],
)
def test_profile_non_finite_value_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["profile", *argv, "--out", str(out)])
    assert code == EXIT_INTERNAL_ERROR
    assert "FloatingPointError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-diag", "--N", "1.5", "--alpha", "nan", "--L-max", "2", "--samples", "2000"],
        ["mc-diag", "--N", "nan"],
        ["profile", "--state", "number", "--n", "1", "--method", "exact", "--rmax", "nan"],
        ["profile", "--state", "number", "--n", "1", "--method", "exact", "--rmax", "inf"],
        ["profile", "--state", "number", "--n", "1", "--method", "exact", "--rmin=-inf"],
        ["saddle-table", "--n", "3", "--smax", "inf"],
        ["saddle-table", "--n", "3", "--smin", "nan"],
        ["profile", "--state", "poisson", "--N", "inf", "--method", "exact"],
        ["profile", "--state", "family", "--L", "2", "--N", "inf", "--method", "spectral"],
    ],
    ids=["alpha-nan", "diag-N-nan", "rmax-nan", "rmax-inf", "rmin-minus-inf", "smax-inf",
         "smin-nan", "poisson-N-inf", "family-N-inf"],
)
def test_non_finite_option_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    assert exit_code(argv) == EXIT_CONFIG_ERROR
    assert "invalid finite float value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["rmax = nan", "N = -inf", "rmin = inf"])
def test_non_finite_config_file_value_exits_2(tmp_path, monkeypatch, capsys, line):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = poisson\nN = 1.5\nmethod = exact\n{line}\n")
    assert exit_code(["profile", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "invalid finite float value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_mc_sign_problem_exits_3(tmp_path, capsys):
    # uniform Monte Carlo cannot resolve W = 3.4e-5 here (effective sample size
    # about 1); the run must fail instead of writing W ~ 1e-19 and exiting 0
    out = tmp_path / "mc.csv"
    code = main(
        ["profile", "--state", "family", "--L", "12", "--N", "30.5", "--method", "mc",
         "--rmin", "2", "--rmax", "2", "--points", "1", "--samples", "400000", "--seed", "1",
         "--out", str(out)]
    )
    assert code == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "SignProblemError: effective sample size" in err
    assert "below the floor 5 at alpha = 2+0j" in err
    assert list(tmp_path.iterdir()) == []


def test_value_error_during_run_exits_3(tmp_path, monkeypatch, capsys):
    # a ValueError raised while values are computed is a run error, not a config error
    def broken(alpha, params):
        if (np.abs(alpha) > 1.0).any():
            raise ValueError("mid-profile failure")
        return np.zeros(len(alpha))

    monkeypatch.setattr(cli, "wigner_spectral", broken)
    out = tmp_path / "s.csv"
    code = main(
        ["profile", "--state", "family", "--L", "2", "--N", "1.5", "--method", "spectral",
         "--rmax", "2", "--points", "5", "--out", str(out)]
    )
    assert code == EXIT_INTERNAL_ERROR
    assert "mid-profile failure" in capsys.readouterr().err
    assert not out.exists()


# modules `import wigpath.cli` leaves out: scipy serves only the benchmark's
# oracles, and the rest load on first use.  The flag marks those that a
# quadrature and a spectral profile must leave out as well; the others load
# for the check suites and figure2.
DEFERRED_MODULES = [
    ("scipy", True),
    ("numpy.random", True),
    ("concurrent.futures", True),
    ("_hashlib", True),
    ("numpy.polynomial", False),
    ("hashlib", True),
    ("secrets", True),
]


def run_python(source, *args, **env):
    """The stdout of `python -c source *args` in a fresh interpreter that
    imports this wigpath; a keyword sets an environment variable, or with
    None unsets it."""
    src = Path(cli.__file__).resolve().parents[1]
    child = {**os.environ}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), child.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    done = subprocess.run(
        [sys.executable, "-c", source, *args], env=child, check=True, capture_output=True,
        text=True, timeout=120,
    )
    return done.stdout


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after `import wigpath, wigpath.cli`,
    and after it then runs an L = 2, M = 64 quadrature profile, a spectral
    profile, a saddle table, figure2 and the oracle, normalization and
    determinant check suites through cli.main."""
    out = tmp_path_factory.mktemp("deferred")
    probe = f"""
import json, sys, wigpath, wigpath.cli
imported = sorted(sys.modules)
argv = ["profile", "--state", "family", "--L", "2", "--N", "10.5"]
quadrature = ["--method", "quadrature", "--M", "64", "--out", {str(out / "q.csv")!r}]
assert wigpath.cli.main([*argv, *quadrature]) == 0
assert wigpath.cli.main([*argv, "--method", "spectral", "--out", {str(out / "s.csv")!r}]) == 0
saddle = ["saddle-table", "--n", "10", "--L", "8", "--out", {str(out / "t.csv")!r}]
assert wigpath.cli.main(saddle) == 0
assert wigpath.cli.main(["figure2", "--points", "101", "--out-dir", {str(out)!r}]) == 0
for suite in ("oracle", "normalization", "determinant"):
    assert wigpath.cli.main(["check", suite]) == 0
print(json.dumps([imported, sorted(sys.modules)]))
"""
    return json.loads(run_python(probe).splitlines()[-1])


@pytest.mark.parametrize(
    "module, after_runs", DEFERRED_MODULES, ids=[m for m, _ in DEFERRED_MODULES]
)
def test_cli_import_leaves_module_out(loaded_modules, module, after_runs):
    imported, after_runs_loaded = loaded_modules

    def loaded(names):
        return [m for m in names if m == module or m.startswith(module + ".")]

    assert loaded(imported) == []
    if after_runs:
        assert loaded(after_runs_loaded) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator setting")
def test_mc_profile_reuses_freed_memory(tmp_path):
    # every batch of the run computes in one buffer pair, so the block memory
    # is faulted in once: about 400 minor page faults, where temporaries
    # freed to the OS and allocated again by every batch took about 1.8e4
    probe = (
        "import resource, sys; from wigpath import cli; "
        "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "cli.main(['profile', '--state', 'family', '--L', '3', '--N', '1.5', '--method', 'mc', "
        "'--samples', '20000', '--points', '100', '--out', sys.argv[1]]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)"
    )
    assert int(run_python(probe, str(tmp_path / "mc.csv")).split()[-1]) < 5000


# writes the 400-point family quadrature profile of each (L, N, M, rmax) in
# the JSON list argv[2] to argv[1]/L<L>_M<M>.csv through cli.main, all in one
# process
QUADRATURE_PROFILES = """
import json, sys
from wigpath import cli
out, profiles = sys.argv[1], json.loads(sys.argv[2])
for L, N, M, rmax in profiles:
    argv = ["profile", "--state", "family", "--L", str(L), "--N", str(N),
            "--method", "quadrature", "--M", str(M), "--rmax", str(rmax),
            "--points", "400", "--out", f"{out}/L{L}_M{M}.csv"]
    assert cli.main(argv) == 0
"""


def test_quadrature_profile_bytes_independent_of_blas_threads(tmp_path):
    # the kernel is its length-M circulant column, and each block of points
    # multiplies column blocks copied out of it.  Two runs with the BLAS
    # default and runs on one and two BLAS threads write the same bytes, at
    # L = 2 and at L = 3, where the column is a convolution of link factors
    profiles = [(3, 4.5, 256, 8), (2, 50.5, 512, 9), (3, 10.5, 256, 5)]
    runs = {"default1": None, "default2": None, "threads1": "1", "threads2": "2"}
    for name, threads in runs.items():
        (tmp_path / name).mkdir()
        run_python(QUADRATURE_PROFILES, str(tmp_path / name), json.dumps(profiles),
                   OPENBLAS_NUM_THREADS=threads)
    for L, _, M, _ in profiles:
        first, *others = [(tmp_path / name / f"L{L}_M{M}.csv").read_bytes() for name in runs]
        assert len(first.splitlines()) == 401
        assert all(other == first for other in others)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_large_m_quadrature_profiles_hold_no_kernel_sized_array(tmp_path):
    # a 2048 x 2048 complex kernel alone is 64 MB; both profiles run in one
    # process, whose peak resident set stays under that.  The process reads
    # its own high-water mark (VmHWM): its ru_maxrss would also count the
    # resident set of this test process, which starts it
    profiles = [(2, 50.5, 2048, 9), (3, 10.5, 1024, 5)]
    probe = QUADRATURE_PROFILES + (
        "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    )
    printed = run_python(probe, str(tmp_path), json.dumps(profiles))
    peak_kb, unit = printed.split()[-2:]
    assert unit == "kB" and int(peak_kb) < 64 * 1024


def test_mc_profile_bytes_independent_of_workers_and_batch_split(tmp_path):
    # 20,000 samples at seed 7: one worker against two, and batches of 7,000
    # (two full ones and a shorter last one) at one worker against three
    argv = ["profile", "--state", "family", "--L", "3", "--N", "1.5", "--method", "mc",
            "--samples", "20000", "--rmax", "3", "--points", "20", "--seed", "7"]

    def run(*options):
        out = tmp_path / ("mc" + "".join(options) + ".csv")
        assert main([*argv, *options, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    assert run("--workers", "1") == run("--workers", "2")
    assert run("--workers", "1", "--batch", "7000") == run("--workers", "3", "--batch", "7000")


def saddle_panel_rows(n, rs):
    # the documented saddle panel, radius by radius: a singular-zone radius is
    # filled linearly from its nearest valid neighbours, or takes the value of
    # the only one at an end of the grid
    vals, regions = [], []
    for r in rs:
        try:
            vals.append(wigner_saddle(complex(r), n))
            regions.append("")
        except RegionError as exc:
            vals.append(None)
            regions.append(exc.region)
    good = [i for i, v in enumerate(vals) if v is not None]
    for i in [i for i, v in enumerate(vals) if v is None]:
        left = max((g for g in good if g < i), default=None)
        right = min((g for g in good if g > i), default=None)
        if left is None or right is None:
            vals[i] = vals[right if left is None else left]
        else:
            w = (rs[i] - rs[left]) / (rs[right] - rs[left])
            vals[i] = (1.0 - w) * vals[left] + w * vals[right]
        regions[i] = f"interpolated:{regions[i]}"
    return [[cell(r), cell(v), "saddle", "", region] for r, v, region in zip(rs, vals, regions)]


def test_figure2_bundle(tmp_path):
    # per format, two runs: every panel has the same bytes in both, and the
    # bytes of its rows from one-point calls
    levels, header, rows = (1, 10), ["r", "W", "method", "stderr", "region"], {}
    for n in levels:
        rs = np.linspace(0.0, math.sqrt(n + 0.5) + 2.0, 401).tolist()
        rows[n] = {
            "exact": [[cell(r), cell(wigner_number(complex(r), n)), "exact", "", ""] for r in rs],
            "saddle": saddle_panel_rows(n, rs),
            "poisson": [
                [cell(r), cell(wigner_poisson(complex(r), n + 0.5)), "exact", "", ""] for r in rs
            ],
        }
        assert any(row[4].startswith("interpolated:") for row in rows[n]["saddle"])
        assert all(float(row[1]) >= 0.0 for row in rows[n]["poisson"])
    for fmt in ("csv", "json"):
        argv = ["figure2", "--n", *map(str, levels), "--points", "401", "--format", fmt]
        runs = [tmp_path / f"{fmt}_run{k}" for k in (1, 2)]
        for run in runs:
            assert main([*argv, "--out-dir", str(run)]) == EXIT_OK
        text = (runs[0] / "manifest.json").read_text()
        assert (runs[1] / "manifest.json").read_text() == text
        panels = json.loads(text)["panels"]
        assert [panel["n"] for panel in panels] == list(levels)
        for panel in panels:
            assert set(panel["files"]) == {"exact", "saddle", "poisson"}
            # the manifest digest is the standard SHA-256 of the sorted config JSON
            config = json.dumps(panel["config"], sort_keys=True).encode()
            assert panel["config_sha256"] == hashlib.sha256(config).hexdigest()
            for label, name in panel["files"].items():
                text = (runs[0] / name).read_text()
                assert (runs[1] / name).read_text() == text
                assert text == table_text(header, rows[panel["n"]][label], fmt)


def test_figure2_manifest_is_the_same_through_hashlib(tmp_path, monkeypatch):
    # an interpreter without its own SHA-256 module falls back to hashlib
    argv = ["figure2", "--n", "1", "10", "--points", "11", "--out-dir"]
    assert main([*argv, str(tmp_path / "builtin")]) == EXIT_OK
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    assert main([*argv, str(tmp_path / "hashlib")]) == EXIT_OK
    manifests = [(tmp_path / d / "manifest.json").read_text() for d in ("builtin", "hashlib")]
    assert manifests[0] == manifests[1]


def test_figure2_failed_level_writes_nothing(tmp_path, monkeypatch, capsys):
    exact = cli.wigner_number

    def failing(alpha, n):
        if n == 400:
            raise FloatingPointError("non-finite number-state Wigner value nan")
        return exact(alpha, n)

    monkeypatch.setattr(cli, "wigner_number", failing)
    out = tmp_path / "fig"
    code = main(["figure2", "--n", "10", "400", "--points", "41", "--out-dir", str(out)])
    assert code == EXIT_INTERNAL_ERROR
    assert "FloatingPointError" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_figure2_repeated_level_exits_2_and_writes_nothing(tmp_path, capsys):
    # a repeated level would write its panels twice and list it twice
    out = tmp_path / "fig"
    argv = ["figure2", "--n", "1", "1", "--points", "11", "--out-dir", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert "distinct levels" in capsys.readouterr().err
    assert not out.exists()


def scan_interpolate_gaps(rs, vals, regions):
    # oracle: each gap's neighbours by a scan over every valid index
    vals, regions = list(vals), list(regions)
    good = [i for i, v in enumerate(vals) if v is not None]
    if not good:
        return vals, regions
    for i, v in enumerate(vals):
        if v is not None:
            continue
        left = max((g for g in good if g < i), default=None)
        right = min((g for g in good if g > i), default=None)
        if left is None or right is None:
            vals[i] = vals[left if left is not None else right]
        else:
            w = (rs[i] - rs[left]) / (rs[right] - rs[left])
            vals[i] = (1.0 - w) * vals[left] + w * vals[right]
        regions[i] = f"interpolated:{regions[i]}"
    return vals, regions


@pytest.mark.parametrize(
    "gaps",
    [
        [0, 1, 2],  # leading
        [37, 38, 39],  # trailing
        [0, 5, 6, 7, 20, 21, 39],  # both ends and adjacent runs
        [10],
        list(range(40)),  # nothing to interpolate from
        [],
    ],
    ids=["leading", "trailing", "mixed", "single", "all", "none"],
)
def test_interpolate_gaps_equals_scan(gaps):
    rs = np.sort(np.random.default_rng(4).uniform(0.0, 6.0, 40))
    exact = [float(math.cos(3.0 * r)) for r in rs]
    vals = [None if i in gaps else v for i, v in enumerate(exact)]
    regions = ["turning" if i in gaps else "" for i in range(40)]
    got = cli._interpolate_gaps(rs, vals, regions)
    assert got == scan_interpolate_gaps(rs, vals, regions)
    assert got[1].count("") == 40 - len(gaps)


def test_check_determinant_passes(tmp_path, capsys):
    out = tmp_path / "det.json"
    code = main(["check", "determinant", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {f"determinant L={L}" for L in range(3, 11)}


def test_check_report_bytes_reproducible(tmp_path):
    # the report of every suite, the seeded sign suite included, carries no
    # timing; its sidecar records the wall time
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "all", "--out", str(first)]) == EXIT_OK
    assert main(["check", "all", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_check_sign_trend(tmp_path):
    out = tmp_path / "sign.json"
    code = main(["check", "sign", "--L-max", "3", "--samples", "20000", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    rows = report["checks"][0]["detail"]["rows"]
    assert [row["L"] for row in rows] == [1, 2, 3]


def test_check_sign_empty_range_exits_2(tmp_path, capsys):
    out = tmp_path / "sign.json"
    assert main(["check", "sign", "--L-max", "0", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "--L-max" in capsys.readouterr().err
    assert not out.exists()


def test_check_all_forwards_sign_options(tmp_path):
    out = tmp_path / "all.json"
    main(["check", "all", "--samples", "2000", "--L-max", "2", "--seed", "3", "--out", str(out)])
    report = json.loads(out.read_text())
    (sign,) = [c for c in report["checks"] if c["name"].startswith("sign")]
    rows = sign["detail"]["rows"]
    assert len(rows) == 2
    assert all(row["effective_sample_size"] <= 2000 for row in rows)


def test_saddle_table(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["saddle-table", "--n", "10", "--L", "8", "--smin", "0.2", "--smax", "4.5",
         "--points", "40", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "s"
    branches = {row[2] for row in rows}
    assert "interior" in branches and "exterior" in branches
    interior = [row for row in rows if row[2] == "interior"]
    assert all(float(row[11]) <= 1e-11 for row in interior)


def saddle_table_rows(n, L, grid):
    # one row per radius from its own solve: a solved saddle, or a zone row
    r = math.sqrt(n + 0.5)
    rows = []
    for s in grid.tolist():
        try:
            sol = solve_saddle(s, r, L)
        except RegionError as exc:
            rows.append([cell(s), cell(s / r)] + [""] * 10 + [exc.region])
            continue
        parts = [sol.theta, sol.stationary_action, sol.log_det_hessian, sol.t]
        numbers = [x for z in parts for x in ((None, None) if z is None else (z.real, z.imag))]
        rows.append([cell(s), cell(s / r), sol.branch, *map(cell, numbers),
                     cell(sol.residual()), ""])
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n, L, s_min, points",
    [
        # s_min = sqrt(10.5) - 2 and the default s_max = sqrt(10.5) + 2: the middle
        # radius lies on the circle, in the turning zone
        (10, 8, 1.2403703492039302, 301),
        (3, 2, 0.05, 57),  # L = 2 has no Hessian log-determinant
    ],
    ids=["zone", "L2"],
)
def test_saddle_table_bytes_equal_per_row_solves(tmp_path, fmt, n, L, s_min, points):
    out = tmp_path / f"table.{fmt}"
    argv = ["saddle-table", "--n", str(n), "--L", str(L), "--smin", repr(s_min),
            "--points", str(points), "--format", fmt, "--out", str(out)]
    assert main(argv) == EXIT_OK
    r = math.sqrt(n + 0.5)
    rows = saddle_table_rows(n, L, np.linspace(s_min, r + 2.0, points))
    if L == 2:
        assert all(row[7] == row[8] == "" for row in rows)
    else:
        assert [row[-1] for row in rows].count("turning") == 1
    header = ["s", "s_over_r", "branch", "theta_re", "theta_im", "action_re", "action_im",
              "logdet_re", "logdet_im", "t_re", "t_im", "residual", "region"]
    assert out.read_text() == table_text(header, rows, fmt)


def test_default_output_directory_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WIGPATH_OUTDIR", str(tmp_path))
    code = main(["profile", "--state", "number", "--n", "1", "--method", "exact", "--points", "4"])
    assert code == EXIT_OK
    assert (tmp_path / "profile_number_exact.csv").exists()


def test_mc_diag(tmp_path):
    out = tmp_path / "diag.csv"
    code = main(
        ["mc-diag", "--N", "1.5", "--alpha", "0.8", "--L-min", "1", "--L-max", "3",
         "--samples", "20000", "--seed", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "L"
    assert len(rows) == 3
    phases = [float(row[3]) for row in rows]
    assert phases[0] == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0.0 for p in phases)


@pytest.mark.parametrize("rmin, rmax, points", [("12", "16", "5"), ("14", "14.8", "3")])
def test_profile_mc_far_tail_has_positive_standard_errors(tmp_path, rmin, rmax, points):
    # L = 1 far outside the circle: every weight is positive and below 1e-100,
    # so the squared weights underflow unless they are scaled first
    out = tmp_path / "mc.csv"
    argv = ["profile", "--state", "family", "--L", "1", "--N", "1.5", "--method", "mc",
            "--samples", "2000", "--rmin", rmin, "--rmax", rmax, "--points", points,
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, rows = read_csv(out)
    assert len(rows) == int(points)
    assert all(float(row[header.index("stderr")]) > 0.0 for row in rows)


def test_mc_diag_far_tail_keeps_its_effective_sample_size(tmp_path):
    # at alpha = 20 the largest weight at L = 1 is about 1e-306
    out = tmp_path / "diag.csv"
    assert main(["mc-diag", "--N", "1.5", "--alpha", "20", "--L-max", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert float(rows[0][header.index("ess")]) > 5.0


def test_profile_mc_names_underflow_where_every_weight_is_zero(tmp_path, capsys):
    # at L = 1, alpha = 30 every weight exp(-S) is below the smallest subnormal
    out = tmp_path / "mc.csv"
    argv = ["profile", "--state", "family", "--L", "1", "--N", "1.5", "--method", "mc",
            "--samples", "2000", "--rmin", "30", "--rmax", "30", "--points", "1",
            "--out", str(out)]
    assert main(argv) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "SignProblemError: every weight exp(-S) of 2000 samples underflows to 0" in err
    assert "at alpha = 30+0j" in err
    assert "sign problem" not in err
    assert list(tmp_path.iterdir()) == []


def test_mc_diag_leaves_the_phase_of_an_underflowed_member_empty(tmp_path):
    # no weight survives at alpha = 30, so there is no mean phase to write
    out = tmp_path / "diag.csv"
    assert main(["mc-diag", "--N", "1.5", "--alpha", "30", "--L-max", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows == [["1", "", "", "", "", "0"]]


def test_mc_diag_rows_equal_check_sign_rows(tmp_path):
    diag, sign = tmp_path / "diag.csv", tmp_path / "sign.json"
    common = ["--L-max", "3", "--samples", "20000", "--seed", "7"]
    argv = ["mc-diag", "--N", "1.5", "--alpha", "0.8", "--L-min", "1", *common, "--out", str(diag)]
    assert main(argv) == EXIT_OK
    main(["check", "sign", *common, "--out", str(sign)])
    keys = ["L", "estimate", "standard_error", "mean_phase_magnitude", "phase_standard_error",
            "effective_sample_size"]
    report = json.loads(sign.read_text())["checks"][0]["detail"]["rows"]
    _, rows = read_csv(diag)
    assert [[float(x) for x in row] for row in rows] == [[row[k] for k in keys] for row in report]


def test_mc_diag_reports_a_collapsed_member_instead_of_failing(tmp_path):
    # at N = 30.5, alpha = 2 the effective sample size falls below 5 from L = 5
    out = tmp_path / "diag.csv"
    argv = ["mc-diag", "--N", "30.5", "--alpha", "2", "--L-min", "3", "--L-max", "6",
            "--samples", "20000", "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == ["3", "4", "5", "6"]
    spec = MonteCarloSpec(20000, seed=0)
    for row in rows[:2]:
        res = wigner_montecarlo(2.0 + 0j, FamilyParams(int(row[0]), 30.5), spec)
        assert float(res.effective_sample_size) >= 5.0
        assert row[1:] == [
            cell(x) for x in (res.value, res.standard_error, res.mean_phase_magnitude,
                              res.phase_standard_error, res.effective_sample_size)
        ]
    for row in rows[2:]:
        assert row[1] == row[2] == row[4] == ""
        assert 0.0 < float(row[3]) <= 1.0
        assert 1.0 <= float(row[5]) < 5.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_diag_bytes_equal_per_member_rows(tmp_path, fmt):
    # members L = 5, 6, 7 collapse (effective sample size below 5): empty cells
    out = tmp_path / f"diag.{fmt}"
    argv = ["mc-diag", "--N", "30.5", "--alpha", "2", "--L-min", "1", "--L-max", "7",
            "--samples", "20000", "--seed", "0", "--format", fmt, "--out", str(out)]
    assert main(argv) == EXIT_OK
    members = [FamilyParams(L, 30.5) for L in range(1, 8)]
    rows = [[cell(x) for x in row.values()]
            for row in sign_rows(members, 2 + 0j, MonteCarloSpec(20000, seed=0))]
    assert rows[0][1] != "" and rows[-1][1] == ""  # a solved and a collapsed member
    header = ["L", "estimate", "stderr", "mean_phase_magnitude", "phase_stderr", "ess"]
    assert out.read_text() == table_text(header, rows, fmt)


def test_mc_diag_empty_range_exits_2(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    code = main(["mc-diag", "--N", "1.5", "--L-min", "3", "--L-max", "1", "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    assert "--L-min" in capsys.readouterr().err
    assert not out.exists()


def test_json_output_mirrors_numbers_as_strings(tmp_path):
    out = tmp_path / "prof.json"
    main(
        ["profile", "--state", "number", "--n", "1", "--method", "exact",
         "--points", "4", "--out", str(out), "--format", "json"]
    )
    payload = json.loads(out.read_text())
    assert len(payload) == 4
    assert isinstance(payload[0]["W"], str)
    assert float(payload[0]["W"]) == pytest.approx(-2.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [["0", "0.63661977236758138", "exact", "", ""]],
        [
            ["1.5", "-0.125", "saddle", "", "turning"],
            ["2", "0.25", "saddle", "", "interpolated:turning"],
            ["2.5", "1e-300", "monte-carlo", "3.5e-05", ""],
            ["3", 'quote " backslash \\ tab \t newline \n', "é ☃ \x7f %s %%", "", "{}"],
        ],
    ],
    ids=["empty", "one-row", "escapes"],
)
def test_json_table_equals_json_dumps(rows):
    header = ["r", "W", "method", "stderr", "region"]
    want = json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
    columns = list(zip(*rows))
    assert cli._table(header, columns, "json") == want
    # a header cell that needs escaping, or holds a format directive
    odd = ['a "b"', "100%", "s\\t", "{x}", "ü"]
    want = json.dumps([dict(zip(odd, row)) for row in rows], indent=1) + "\n"
    assert cli._table(odd, columns, "json") == want


def test_sidecars_record_the_output_format(tmp_path):
    runs = {
        "st.json": ["saddle-table", "--n", "3", "--L", "4", "--points", "5"],
        "diag.json": ["mc-diag", "--N", "1.5", "--L-max", "2", "--samples", "2000"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--format", "json", "--out", str(tmp_path / name)]) == EXIT_OK
    fig = tmp_path / "fig"
    assert main(["figure2", "--n", "1", "--points", "21", "--format", "json",
                 "--out-dir", str(fig)]) == EXIT_OK
    for meta in (tmp_path / "st.json.meta.json", tmp_path / "diag.json.meta.json",
                 fig / "manifest.json.meta.json"):
        assert json.loads(meta.read_text())["config"]["fmt"] == "json"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("panel", ["zones", "interpolated"])
def test_profile_table_equals_per_value_rows(fmt, panel):
    # the saddle at n = 10 over a grid through the origin and turning zones
    rs = np.linspace(0.0, 6.0, 1001)
    values, stderrs, regions = cli._saddle_columns(rs, 10, 512)
    assert None in values and {"turning", "origin"} <= set(regions)
    if panel == "interpolated":
        values, regions = cli._interpolate_gaps(rs, values, regions)
    rows = [
        [cell(r), cell(value), "saddle", cell(None), region]
        for r, value, region in zip(rs, values, regions)
    ]
    want = table_text(["r", "W", "method", "stderr", "region"], rows, fmt)
    columns = (values, stderrs, regions)
    assert cli._profile_table(cli._fmt_column(rs), "saddle", columns, fmt) == want


def test_fmt_column_rejects_non_finite_values():
    with pytest.raises(FloatingPointError, match="non-finite output value nan"):
        cli._fmt_column([1.0, None, math.nan, math.inf])
