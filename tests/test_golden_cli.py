"""Byte-for-byte stdout of exact CLI commands.

Each ``tests/golden/NAME.out`` holds what one command below printed before
a change to the product, regularization or series kernels, so a kernel
change that claims identical output is checked, not diffed by hand.  Every
command is exact: rational coefficients, or a complex product or
regularization, which needs only IEEE ``+`` and ``*`` and no libm, so the
bytes are the same on every platform.  After a change that is meant to alter the output, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from cyclozeta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "product-shuffle": [
        "product", "--group", "Z3", "--shuffle",
        "3/2*xg[1]x0 + -1/7*xg[2]xg[2]", "xg[1]xg[2] + 5/3*x0xg[0]"],
    "product-harmonic": [
        "product", "--group", "Z3", "--harmonic",
        "2/5*y[1,g1]y[2,g2] + 3*y[1,g0]", "-4/3*y[2,g1] + y[1,g2]y[1,g1]"],
    # the Y alphabet reaches the shuffle and concatenation products too
    "product-y-shuffle": [
        "product", "--group", "Z3", "--alphabet", "Y", "--shuffle",
        "2/5*y[1,g1]y[2,g2] + 3*y[1,g0]", "-4/3*y[2,g1] + y[1,g2]y[1,g1]"],
    "product-y-concat": [
        "product", "--group", "Z3", "--alphabet", "Y", "--concat",
        "2/5*y[1,g1]y[2,g2] + 3*y[1,g0]", "-4/3*y[2,g1] + y[1,g2]"],
    "product-concat": [
        "product", "--group", "Z3", "--concat",
        "3/2*xg[1]x0 + -1/7*xg[2]", "xg[1]xg[2] + 5/3*x0 + 2*xg[1]"],
    "product-complex-shuffle": [
        "product", "--group", "Z3", "--ring", "complex", "--shuffle",
        "(1.5+0.25j)*xg[1]x0 + -2*xg[2] + -xg[0]", "(0.1-3j)*xg[2]xg[1] + 2*xg[0]"],
    # negative-zero parts reach the products; the text must not show them
    "product-complex-harmonic": [
        "product", "--group", "Z3", "--ring", "complex", "--harmonic",
        "(1-0j)*y[1,g1] + (-0.5-0j)*y[2,g2]y[1,g0] + (-0-1j)*y[1,g2]",
        "(2-0j)*y[1,g1]y[1,g2] + (-0+3j)*y[1,g0] + -0.25*y[3,g1]"],
    "reg": [
        "reg", "--group", "Z3",
        "2/3*xg[0]xg[1]x0x0 + -5*xg[0]xg[0]xg[2]x0 + xg[0]x0"],
    # the T^0 coefficient cancels to an empty element, which must be pruned
    "reg-cancelled-constant": ["reg", "--group", "Z3", "xg[0]xg[1] + xg[1]xg[0]"],
    # leading x1 runs under trailing x0 runs of length 2 and 3 over Z/2 x Z/2
    "reg-2x2-runs": [
        "reg", "--group", "2x2",
        "xg[0:0]xg[0:0]xg[1:0]x0xg[0:1]x0x0 + -3/2*xg[0:0]xg[0:0]xg[0:0]xg[1:1]x0x0x0"],
    "reg-complex": [
        "reg", "--group", "Z3", "--ring", "complex",
        "(0.5+2j)*xg[0]xg[1]x0 + -1.25*xg[0]xg[0]xg[2]"],
    "fdt-verify-Z12": ["fdt-verify", "--group", "Z12"],
    # |K_2| = 4 and |K_4| = |K_8| = 16 differ from d
    "fdt-verify-4x4": ["fdt-verify", "--group", "4x4"],
    # one divisor: the rows share the command's power structure
    "fdt-verify-4x4-d2": ["fdt-verify", "--group", "4x4", "--d", "2"],
    "duality-test-Z3": ["duality-test", "--group", "Z3", "--degree", "4",
                        "--maps", "50"],
}


def run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        code, out = run(argv)
        assert code == 0, name
        (GOLDEN / f"{name}.out").write_bytes(out)
