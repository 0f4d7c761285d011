"""Which modules a fresh interpreter loads.

``import randmap`` loads none of the package's modules and not numpy; each
CLI command loads only the randmap modules it runs, and ``--help`` or a
usage error loads no numpy.  ``import randmap`` and every CLI command must
load no scipy module: the package does not use scipy.  mpmath is the one
heavy module it imports, on first use, in the de Hoog and Bromwich engines;
those commands must give the same values in a fresh process as in this one.
Every case runs in its own interpreter, because this test process has long
since imported them all.
"""

import ast
import contextlib
import glob
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import randmap
from randmap import cli

HEAVY = ("scipy", "scipy.special", "scipy.optimize", "mpmath")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(randmap.__file__)))

# Runs cli.main on argv[1:] (or, for "import <module>", only that import) and
# prints the exit code, the JSON record (None after --help or a usage error,
# which exit through SystemExit), the heavy modules then loaded, the
# randmap modules loaded (without the "randmap." prefix), and whether numpy
# and numpy.ma were (np.unique imports numpy.ma on first call, about 27 ms).
_PROBE = """
import contextlib, importlib, io, json, sys
heavy = {heavy!r}
if sys.argv[1] == "import":
    importlib.import_module(sys.argv[2])
    code, record = 0, None
else:
    from randmap import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(sys.argv[1:])
        record = json.loads(buf.getvalue())
    except SystemExit as exc:
        code, record = exc.code, None
print(json.dumps({{"code": code, "record": record,
                  "loaded": [m for m in heavy if m in sys.modules],
                  "randmap": sorted(m[8:] for m in sys.modules if m.startswith("randmap.")),
                  "numpy": "numpy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules}}))
""".format(heavy=HEAVY)


def fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("module", ["randmap", "randmap.cli"])
def test_import_loads_no_heavy_module(module):
    assert fresh("import", module)["loaded"] == []


MODULES = sorted(m.name for m in pkgutil.iter_modules(randmap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module but left in its __all__ breaks
    # "from randmap.<module> import *" only
    module = importlib.import_module(f"randmap.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}
SOURCES = sorted(glob.glob("**/*.py", root_dir=randmap.__path__[0], recursive=True))


@pytest.mark.parametrize("source", SOURCES)
def test_no_module_reads_the_environment(source):
    # a result depends on its arguments only: an environment variable once
    # set simulate's default worker count without showing in the record
    with open(os.path.join(randmap.__path__[0], source)) as f:
        tree = ast.parse(f.read())
    names = [getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name, ast.alias))]
    assert ENV_READERS.isdisjoint(names)


def test_import_randmap_loads_no_submodule_and_no_numpy():
    out = fresh("import", "randmap")
    assert out["randmap"] == []
    assert not out["numpy"]


def test_import_randmap_cli_loads_no_other_submodule():
    assert fresh("import", "randmap.cli")["randmap"] == ["cli"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--help",), 0),
        (("simulate", "--help"), 0),
        (("simulate", "--n", "many"), 2),
        (("nosuchcommand",), 2),
    ],
    ids=["help", "simulate-help", "bad-value", "bad-command"],
)
def test_help_and_usage_errors_load_no_numpy(argv, code):
    # the divisibility handler's np.linspace loaded numpy with the cli module
    out = fresh(*argv)
    assert out["code"] == code
    assert out["record"] is None
    assert out["randmap"] == ["cli"]
    assert not out["numpy"]


# Each cheap command, with the randmap modules it loads besides cli: only
# the ones it runs.
ANALYTIC = "dde _quad specfun"
LAPLACE = "laplace " + ANALYTIC
CHEAP = [
    (("eval", "--fn", "rho", "--x", "2"), ANALYTIC),
    (("cdf", "--kind", "mapping-cycle", "--b", "0.6842", "--regime", "rayleigh"),
     "distributions " + ANALYTIC),
    (("invlaplace", "--transform", "cycle-cdf", "--b", "0.5", "--xi", "2", "--method", "talbot"),
     LAPLACE),
    (("enumerate", "--n", "5", "--check-egf"), "exact_enum _kernels gfseries"),
    (("constants", "--regime", "halfnormal"), "distributions moments " + ANALYTIC),
    (("divisibility", "--eta-min", "0.02", "--eta-max", "20", "--steps", "1000"), LAPLACE),
    (("invlaplace", "--transform", "erfc-gauss", "--xi", "1"), LAPLACE),
    (("simulate", "--n", "64", "--trials", "10", "--seed", "1"), "mapping_sim _kernels"),
]


CHEAP_IDS = ["eval", "cdf", "invlaplace", "enumerate", "constants", "divisibility", "erfc-gauss",
             "simulate"]


@pytest.mark.parametrize("argv, modules", CHEAP, ids=CHEAP_IDS)
def test_cheap_command_loads_no_heavy_module(argv, modules):
    out = fresh(*argv)
    assert out["code"] == 0
    assert out["loaded"] == []
    assert not out["numpy.ma"]
    assert out["randmap"] == sorted(["cli", *modules.split()])


# The first two load nothing heavy; the last two reach the first-call import
# of mpmath (de Hoog and the Bromwich override).
HEAVY_COMMANDS = [
    (("constants", "--regime", "halfnormal"), []),
    (("divisibility", "--eta-min", "0.02", "--eta-max", "20", "--steps", "1000"), []),
    (("invlaplace", "--transform", "dickman", "--xi", "3.5"), ["mpmath"]),
    (("invlaplace", "--transform", "cycle-cdf", "--b", "0.5", "--xi", "2", "--method",
      "bromwich"), ["mpmath"]),
]


@pytest.mark.parametrize(
    "argv, loads", HEAVY_COMMANDS, ids=["constants", "divisibility", "dehoog", "bromwich"]
)
def test_first_use_import_gives_in_process_values(argv, loads):
    out = fresh(*argv, "--quiet")
    code, record = in_process(*argv, "--quiet")
    assert out["code"] == code == 0
    assert out["record"] == record
    assert out["loaded"] == loads
