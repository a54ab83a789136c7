"""One energy route for every source: the closed form in its burstiness."""

import ast
import math
import re
from pathlib import Path

import pytest

from qoslink import energy, throughput
from qoslink.channel import ChannelSpec
from qoslink.energy import (
    build_binomial_discrete_source,
    build_birth_death_fluid,
    numeric_energy_metrics,
    source_energy_metrics,
)
from qoslink.sources import (
    MmppSource,
    OnOffContinuousParams,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
    as_discrete_source,
    as_fluid_source,
    as_mmpp_source,
)

PAIRS = [
    (OnOffDiscreteParams(0.8, 0.7, 1.0), as_discrete_source),
    (OnOffFluidParams(2.0, 3.0, 1.0), as_fluid_source),
    (OnOffMmppParams(2.0, 3.0, 1.0), as_mmpp_source),
]


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("onoff, twin", PAIRS, ids=["discrete", "fluid", "mmpp"])
def test_matrix_twins_have_the_two_state_metrics(onoff, twin, rho, theta):
    spec = ChannelSpec(m=10, rho=rho)
    kind, closed, closed_route = source_energy_metrics(onoff, spec, theta)
    twin_kind, got, route = source_energy_metrics(twin(onoff), spec, theta)
    assert (kind, closed_route) == (onoff._kind, "closed_form")
    assert (twin_kind, route) == ("nstate", "deviation_matrix")
    # the bit energy does not read the burstiness
    assert got.ebn0_min_linear == closed.ebn0_min_linear
    assert got.wideband_slope == pytest.approx(closed.wideband_slope, rel=1e-13, abs=0)


def _n50_sources():
    fluid = build_birth_death_fluid(50, 1.0, 1.2, 1.0)
    return [
        build_binomial_discrete_source(50, 0.3, 1.0),
        fluid,
        MmppSource(fluid.generator, fluid.rates),
    ]


@pytest.mark.parametrize("index", range(3), ids=["binomial", "fluid", "mmpp"])
def test_numeric_oracle_agrees_with_the_deviation_matrix_route(index):
    # Richardson differences of r*(snr) near snr = 1e-4 are the oracle:
    # they lose about four digits of the slope on the fluid source
    src = _n50_sources()[index]
    spec = ChannelSpec(m=10, rho=0.5)
    _, exact, _ = source_energy_metrics(src, spec, 0.1)
    numeric = numeric_energy_metrics("nstate", spec, 0.1, source=src)
    assert exact.ebn0_min_linear == pytest.approx(numeric.ebn0_min_linear, rel=1e-6)
    assert exact.wideband_slope == pytest.approx(numeric.wideband_slope, rel=5e-4)


@pytest.mark.parametrize("theta", [0.0, 0.1, 2.0])
def test_mmpp_pays_the_poisson_penalty_on_its_fluid_metrics(theta):
    # an MMPP and the fluid source on the same chain share a burstiness;
    # the MMPP's Poisson layer costs (e^theta - 1)/theta on the bit energy
    fluid = build_birth_death_fluid(8, 1.0, 2.0, 1.0)
    mmpp = MmppSource(fluid.generator, fluid.rates)
    spec = ChannelSpec(m=10, rho=0.5)
    _, f, _ = source_energy_metrics(fluid, spec, theta)
    _, m, _ = source_energy_metrics(mmpp, spec, theta)
    penalty = math.expm1(theta) / theta if theta else 1.0
    assert m.ebn0_min_linear == pytest.approx(f.ebn0_min_linear * penalty, rel=1e-15, abs=0)
    assert m.wideband_slope == pytest.approx(f.wideband_slope / penalty, rel=1e-13, abs=0)


def test_family_less_continuous_params_have_no_energy_metrics():
    with pytest.raises(TypeError, match="source type"):
        source_energy_metrics(OnOffContinuousParams(1.0, 2.0, 1.0), ChannelSpec(m=10, rho=0.0), 0.1)


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def test_energy_and_throughput_read_the_poisson_layer_from_the_source():
    # the penalty and the low-theta slope come from the source's
    # burstiness and its ``_poisson``: no branch on a source family
    family = re.compile(r"OnOff\w*Params|\w*MarkovSource|MmppSource")
    for module, names in (
        (energy, {"source_energy_metrics"}),
        (throughput, {"low_theta_asymptotics", "high_snr_slope"}),
    ):
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                assert not family.search(ast.unparse(node.args[1]))
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
        assert len(funcs) == len(names)
        for func in funcs:
            assert not {
                n.id for n in ast.walk(func) if isinstance(n, ast.Name) and family.fullmatch(n.id)
            }


PROBES = {"isinstance", "hasattr", "getattr", "type"}
# what the layers call a source object; ``cfg.source`` is SimConfig's
SOURCE_NAMES = re.compile(r"(src|source|params|twin|cfg\.source)")
SOURCE_TYPES = re.compile(r"OnOff\w*Params|\w*MarkovSource|MmppSource|_MatrixSource|AnySource")


def _source_probes(module):
    """The calls of ``module`` that probe a source's type: isinstance,
    hasattr, getattr or type() of a source object, or against a source type."""
    found = []
    for node in ast.walk(_tree(module)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in PROBES):
            continue
        args = [ast.unparse(a) for a in node.args]
        if (args and SOURCE_NAMES.fullmatch(args[0])) or any(
                SOURCE_TYPES.search(a) for a in args[1:]):
            found.append(ast.unparse(node))
    return found


def _source_registrations(module):
    """The ``singledispatch`` registrations of ``module`` on a source type:
    ``@f.register`` on a function whose first argument is annotated with
    one, and ``f.register(T)`` or ``f.register(T, impl)`` naming one."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Attribute) and dec.attr == "register" and node.args.args:
                    note = node.args.args[0].annotation
                    if note is not None and SOURCE_TYPES.search(ast.unparse(note)):
                        found.append(f"@{ast.unparse(dec)} {node.name}({ast.unparse(note)})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "register"
              and any(SOURCE_TYPES.search(ast.unparse(a)) for a in node.args)):
            found.append(ast.unparse(node))
    return found


def test_only_sources_decides_what_a_source_is():
    # ``sources._typed_source`` is the one check of a source's family and
    # attributes; the layers read what it has checked, and dispatch on no
    # source type either
    from qoslink import cli, queuesim, sources

    for module in (energy, throughput, queuesim, cli):
        assert _source_probes(module) + _source_registrations(module) == [], module.__name__
    assert _source_probes(sources)  # the guard sees the probes where they belong


def _names(node):
    """Every name ``node`` spells: attributes, variables, imported names
    and string constants (the attributes ``_typed_source`` is asked for)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _functions(node, prefix=""):
    """(qualified name, node) of each function in ``node``'s body and each
    method of its classes; a function's nested functions are its own."""
    for f in node.body:
        if isinstance(f, ast.FunctionDef):
            yield prefix + f.name, f
        elif isinstance(f, ast.ClassDef):
            yield from _functions(f, f"{prefix}{f.name}.")


def test_perron_root_is_the_one_eigenvalue_call():
    # every eigenvalue comes from ``sources._perron_root``, on the route the
    # source fixed when it was built: it calls its operand's ``root``, and
    # one such method names the solvers, which nothing else in the package
    # names; ``throughput`` reads a source's kernel, not the arrays and
    # flags behind it
    import qoslink
    from qoslink import sources

    solvers = {"eigvalsh", "eigvals"}
    naming = {}
    for path in sorted(Path(qoslink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = {f"{path.stem}.{name}": sorted(n for n in _names(f) if n in solvers)
                 for name, f in _functions(tree)}
        found = {name: names for name, names in found.items() if names}
        # no solver is named outside a function
        assert sorted(n for n in _names(tree) if n in solvers) == sorted(
            n for names in found.values() for n in names), path.name
        naming.update(found)
    perron = dict(_functions(_tree(sources)))["_perron_root"]
    calls = {n.func.attr for n in ast.walk(perron)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert "root" in calls
    assert naming == {"sources._Dense.root": sorted(solvers)}
    assert not {"_kernel", "_operand", "reversible"} & set(_names(_tree(throughput)))


# the storage types of a chain's matrix, and what a probe of one would name
OPERAND_TYPES = {"_Operand", "_Dense", "_Band", "_RankOne", "ndarray"}


def _operand_probes(tree):
    """The top-level function or class around each isinstance call in
    ``tree`` against an operand type or an ndarray."""
    return [getattr(top, "name", None) for top in tree.body for n in ast.walk(top)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
            and len(n.args) == 2 and OPERAND_TYPES & set(_names(n.args[1]))]


def test_no_source_method_probes_its_operand():
    # each operand type owns the arithmetic the families use, and
    # ``_structure`` alone picks the type: no other code asks which it is
    from qoslink import sources

    owners = {"_Operand", "_Dense", "_Band", "_RankOne", "_structure"}
    assert [name for name in _operand_probes(_tree(sources)) if name not in owners] == []
    # the guard sees a probe where one is written
    probe = "def kernel(M):\n    return isinstance(M, (_Band, np.ndarray))"
    assert _operand_probes(ast.parse(probe)) == ["kernel"]


def test_matrix_sources_need_no_capacity_curve(monkeypatch):
    # the numeric route is the only one that evaluates C_E(snr); the
    # energy metrics and the low-theta slope of a matrix source do not
    def refuse(*args, **kwargs):
        raise AssertionError("the numeric route was taken")

    monkeypatch.setattr(energy, "effective_capacity_quadrature", refuse)
    spec = ChannelSpec(m=10, rho=0.0)
    for src in _n50_sources():
        assert source_energy_metrics(src, spec, 0.1)[2] == "deviation_matrix"
        throughput.low_theta_asymptotics(src, spec, 1.0)
    with pytest.raises(AssertionError, match="numeric route"):
        numeric_energy_metrics("nstate", spec, 0.1, source=_n50_sources()[0])


# every kind label a kind-string entry point or a source document takes
KIND_LABELS = {"constant", "discrete", "fluid", "mmpp", "nstate",
               "onoff-discrete", "onoff-fluid", "onoff-mmpp"}


def _compared_labels(node):
    """The kind labels among a comparison's string constants."""
    return {
        n.value for operand in (node.left, *node.comparators) for n in ast.walk(operand)
        if isinstance(n, ast.Constant) and n.value in KIND_LABELS
    }


def test_sources_parse_a_kind_string_only_from_json():
    import qoslink.sources as sources

    tree = _tree(sources)
    allowed = {
        id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "source_from_json"
        for n in ast.walk(f)
    }
    compares = [n for n in ast.walk(tree) if isinstance(n, ast.Compare) and id(n) not in allowed]
    assert not [ast.unparse(n) for n in compares if _compared_labels(n)]


def test_kind_tables_live_beside_their_callers_in_energy():
    import qoslink

    names = {"_KINDS", "_ONOFF_KINDS", "_kind_source"}
    for path in Path(qoslink.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.alias))}
        if path.name == "energy.py":
            defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)} | {
                t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
            }
            assert names <= defined
        else:
            assert not used & names, path.name


def test_one_name_per_idea():
    # each of these restated what a source, the channel's samplers or a
    # report already answers
    import qoslink
    from qoslink import channel, queuesim, sources

    gone = {
        "stationary_distribution_discrete": sources,
        "stationary_distribution_fluid": sources,
        "sample_fading_block": channel,
        "service_rate": channel,
        "varsigma_estimate": queuesim,
        "energy_metrics_constant": energy,
    }
    for name, module in gone.items():
        assert not hasattr(qoslink, name) and not hasattr(module, name), name
    assert not hasattr(channel, "FadingBlock") and not hasattr(sources, "_onoff_type")
