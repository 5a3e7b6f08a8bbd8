"""The names the benchmark's layer trace patches must stay where it finds them.

``perfbench/spans.py`` swaps these callables for timed wrappers through
``owner.__dict__[attr]`` and reads each step's ``h`` by parameter name, so
renaming, moving or re-importing one under another name breaks
``perfbench/run.py --trace 1``.  The benchmark's own tests are not part of
this suite; this test keeps the contract visible here.
"""

import inspect

import pytest

from sdestep import brownian, cli, harness, schemes


@pytest.mark.parametrize(
    "owner,attr",
    [
        (harness, "step_bdf2"),
        (harness, "step_bem"),
        (harness, "step_explicit_euler"),
        (schemes, "solve_implicit"),
        (schemes, "step_lmm"),
        (cli, "integrate"),
        (cli, "generate_increments"),
        (cli, "make_model"),
        (brownian.SeedSpec, "generator"),
    ],
)
def test_traced_names_are_attributes_of_their_owner(owner, attr):
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("attr", ["step_bdf2", "step_bem", "step_explicit_euler"])
def test_harness_steps_take_a_parameter_named_h(attr):
    assert "h" in inspect.signature(harness.__dict__[attr]).parameters


def test_solve_implicit_keeps_its_signature():
    params = inspect.signature(schemes.__dict__["solve_implicit"]).parameters
    assert list(params) == ["model", "beta", "h", "R", "cfg"]
