"""The README's examples, run as written: the command-line lines that show
their output, and the values the library snippet shows in its comments."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import chatelet
from chatelet import checks, factorint, globalchow, local, norms, padic
from chatelet.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> list:
    """The lines of the first fenced block of the given language after the
    heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    body = section.split(f"```{language}\n", 1)[1].split("```", 1)[0]
    return body.splitlines()


def _shown_commands():
    """(argv, shown output lines) for each `chatelet` line followed by `# `
    lines, with the elided `# ...` left out."""
    lines = _block("Command line", "sh")
    for i, line in enumerate(lines):
        if not line.startswith("chatelet "):
            continue
        shown = []
        for follow in lines[i + 1:]:
            if not follow.startswith("# "):
                break
            shown.append(follow[2:])
        if shown:
            yield shlex.split(line)[1:], [s for s in shown if s != "..."]


COMMANDS = list(_shown_commands())


def test_the_command_block_shows_output():
    assert len(COMMANDS) >= 2


@pytest.mark.parametrize("argv,shown", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_prints_what_the_readme_shows(argv, shown, capsys):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    at = 0
    for line in shown:
        assert line in out[at:], f"{line!r} not printed after line {at} of {out}"
        at = out.index(line, at) + 1


def test_library_snippet_values():
    namespace: dict = {}
    compared = 0
    for line in _block("Library entry points", "python"):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not comment:
            exec(code, namespace)
            continue
        # the value ends where a note begins: a dash or a second space
        shown = re.split(r" — |  ", comment.strip(), maxsplit=1)[0]
        assert eval(code, namespace) == ast.literal_eval(shown), line
        compared += 1
    assert compared >= 6


ROOT_NAMES = """
    CASE_FAMILIES CheckReport ContradictionError DegenerateSurfaceError ExtKind
    FactorizationError GlobalReport LocalReport NormalizedSurface Place
    QuadExtClass REAL_PLACE ReciprocityReport Subgroup3 SuiteResult
    TRIVIAL_SUBGROUP candidate_places characteristic_points
    characteristic_subgroup check_equivariance check_order_agreement
    check_reciprocity check_root_scaling check_sampled_membership
    check_square_scaling chi classify_case classify_extension conductor_n
    factorize global_chow hilbert_symbol is_local_square is_prime
    is_rational_square kernel_dimension legendre local_chow norm_char_fn
    normalize_roots random_rational random_surface reciprocity_check
    require_prime_place run_check special_fiber_images valuation
""".split()


def test_root_exports_each_module_list_once():
    # the root's names are its modules' __all__ lists, each bound to the
    # module's own object; helpers the modules keep private stay off the root
    assert sorted(chatelet.__all__) == ROOT_NAMES
    assert len(set(chatelet.__all__)) == len(chatelet.__all__)
    for module in (checks, factorint, globalchow, local, norms, padic):
        for name in module.__all__:
            assert getattr(chatelet, name) is getattr(module, name), (module.__name__, name)
    for name in ("Rational", "RhoBudget", "primes_below"):
        assert not hasattr(chatelet, name)
