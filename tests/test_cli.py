"""Command line interface: parsing, output formats, exit codes."""

import argparse
import json
import shlex
from fractions import Fraction

import pytest

import chatelet.cli
from chatelet import ContradictionError
from chatelet.checks import CheckReport, SuiteResult
from chatelet.cli import (
    EXIT_CONTRADICTION,
    EXIT_FACTORIZATION,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    main,
    parse_place,
    parse_rational,
    parse_roots,
)

# a prime past psi_13, the Miller-Rabin witness limit: it cannot be certified
UNCERTIFIABLE_PRIME = "10000000000000000000000013"


class TestParsers:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("7", Fraction(7)),
            ("-3/20", Fraction(-3, 20)),
            ("+4", Fraction(4)),
            ("4/6", Fraction(2, 3)),
            ("0", Fraction(0)),
        ],
    )
    def test_rational_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1.5", "1/0", "", "−3", "a/b", "1//2"])
    def test_rational_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational(text)

    def test_roots(self):
        assert parse_roots("0,1,2") == (Fraction(0), Fraction(1), Fraction(2))
        assert parse_roots(" -1/2 , 3 , 4 ") == (Fraction(-1, 2), Fraction(3), Fraction(4))
        with pytest.raises(argparse.ArgumentTypeError):
            parse_roots("0,1")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_roots("0,1,2,3")

    def test_place(self):
        assert parse_place("real") == "real"
        assert parse_place("2") == 2
        assert parse_place("17") == 17
        for bad in ["6", "-3", "1", "foo", "2.0", "10000000000000000000000007"]:
            with pytest.raises(argparse.ArgumentTypeError):
                parse_place(bad)


class TestLocalCommand:
    ARGS = ["local", "--d", "-1", "--roots", "0,1,2", "--p", "2"]

    def test_json_payload(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "local"
        assert payload["inputs"] == {
            "d": "-1",
            "roots": ["0", "1", "2"],
            "place": 2,
        }
        result = payload["result"]
        assert result["case"] == "Prop3-iii"
        assert result["order"] == 4
        assert result["group"] == "(Z/2)^2"
        assert result["generators"] == [[1, 0, 1], [0, 1, 1]]
        assert result["extension"] == {
            "kind": "ramified",
            "conductor_n": 1,
        }
        assert result["normalized"] == {
            "base_root_index": 2,
            "perm": [2, 1, 3],
            "e1": "-1",
            "e2": "1",
            "r": 0,
        }
        # a failed cross-check exits 4 before anything prints, so no
        # always-true check entry is emitted
        assert "checks" not in payload

    def test_json_round_trips(self, capsys):
        main(self.ARGS + ["--format", "json"])
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_text_output(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "case: Prop3-iii" in out
        assert "group: (Z/2)^2 (order 4)" in out
        assert "generators: (1,0,1), (0,1,1)" in out

    def test_real_place(self, capsys):
        assert main(["local", "--d", "-1", "--roots", "0,1,2", "--p", "real"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "case: Real-d-negative" in out

    def test_repeated_roots_exit(self, capsys):
        code = main(["local", "--d", "-1", "--roots", "0,1,1", "--p", "2"])
        assert code == EXIT_INVALID_INPUT
        assert "pairwise distinct" in capsys.readouterr().err

    def test_zero_d_exit(self):
        assert main(["local", "--d", "0", "--roots", "0,1,2", "--p", "2"]) == EXIT_INVALID_INPUT

    def test_malformed_rational_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["local", "--d", "1.5", "--roots", "0,1,2", "--p", "2"])
        assert exc.value.code == EXIT_INVALID_INPUT

    def test_composite_place_exits_via_argparse(self):
        # the second place lies above the Miller-Rabin certification limit
        for place in ("6", "10000000000000000000000007"):
            with pytest.raises(SystemExit) as exc:
                main(["local", "--d", "-1", "--roots", "0,1,2", "--p", place])
            assert exc.value.code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "args",
        [
            ["--d", "-3/4", "--roots", "-1,0,1", "--p", "2"],
            ["--d=-3/4", "--roots=-1,0,1", "--p=2"],
        ],
        ids=["space", "equals"],
    )
    def test_signed_values(self, args, capsys):
        # argparse alone reads -3/4 and -1,0,1 after a space as options
        assert main(["local", *args, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"] == {"d": "-3/4", "roots": ["-1", "0", "1"], "place": 2}
        assert payload["result"]["case"] == "Prop1-ii"
        assert payload["result"]["generators"] == [[1, 0, 1]]

    def test_contradiction_exit(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ContradictionError("forced", predicted_order=1, enumerated_order=4)

        monkeypatch.setattr(chatelet.cli, "local_chow", boom)
        assert main(self.ARGS) == EXIT_CONTRADICTION

    def test_contradiction_ends_with_repro_line(self, monkeypatch, capsys):
        # negative and fractional values must survive the round trip
        monkeypatch.setattr(
            chatelet.local, "classify_case", lambda d, surf, place: ("Prop3-i", 1)
        )
        args = ["local", "--d=-1/4", "--roots=-3/2,0,1", "--p=2"]
        assert main(args) == EXIT_CONTRADICTION
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line == "chatelet local --d=-1/4 --roots=-3/2,0,1 --p=2"
        argv = shlex.split(line)
        assert argv[0] == "chatelet"
        assert main(argv[1:]) == EXIT_CONTRADICTION


class TestGlobalCommand:
    def test_json_payload(self, capsys):
        code = main(["global", "--d", "-1", "--roots", "0,1,2", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        result = payload["result"]
        assert result["kernel_dim"] == 1
        assert result["group"] == "(Z/2)^1"
        assert result["checked_places"] == ["real", 2]
        assert len(result["sampled_primes"]) == 20
        places = {str(p["place"]): p for p in result["places"]}
        assert places["real"]["case"] == "Real-d-negative"
        assert places["2"]["case"] == "Prop3-iii"
        assert "checks" not in payload

    def test_signed_values(self, capsys):
        outputs = []
        for args in (
            ["--d", "-3/4", "--roots", "-1,0,1"],
            ["--d=-3/4", "--roots=-1,0,1"],
        ):
            assert main(["global", *args, "--format", "json"]) == EXIT_OK
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0]["inputs"] == {"d": "-3/4", "roots": ["-1", "0", "1"]}

    def test_square_d(self, capsys):
        assert main(["global", "--d", "4", "--roots", "0,1,2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel dimension: 0" in out
        assert "(Z/2)^0" in out
        assert "checked places: none\n" in out

    def test_factorization_exit(self, capsys):
        code = main(["global", "--d", UNCERTIFIABLE_PRIME, "--roots", "0,1,2"])
        assert code == EXIT_FACTORIZATION
        assert "Miller-Rabin witness limit" in capsys.readouterr().err

    def test_seeded_sampling_is_deterministic(self, capsys):
        main(["global", "--d", "-1", "--roots", "0,1,2", "--format", "json"])
        first = capsys.readouterr().out
        main(["global", "--d", "-1", "--roots", "0,1,2", "--format", "json"])
        assert capsys.readouterr().out == first


class TestSymbolCommand:
    def test_real(self, capsys):
        assert main(["symbol", "--a", "-1", "--b", "-1", "--p", "real", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == 1
        assert payload["inputs"] == {"a": "-1", "b": "-1", "place": "real"}
        assert "checks" not in payload

    def test_finite(self, capsys):
        assert main(["symbol", "--a", "2", "--b", "5", "--p", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("1")

    def test_zero_rejected(self):
        assert main(["symbol", "--a", "0", "--b", "5", "--p", "5"]) == EXIT_INVALID_INPUT

    def test_signed_values(self, capsys):
        assert main(["symbol", "--a", "-3/4", "--b", "-1", "--p", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"


class TestCheckCommand:
    ARGS = ["check", "--seed", "1", "--fuzz-count", "3", "--format", "json"]

    def test_runs_and_passes(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == {"ok": True}
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "order-agreement",
            "reciprocity",
            "sampled-membership",
            "equivariance",
        ]
        agreement = payload["checks"][0]
        assert agreement["failed"] == 0
        assert agreement["details"]["Prop3-iii"] == 3

    def test_deterministic_output(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        assert capsys.readouterr().out == first

    def test_failing_report_exits(self, monkeypatch, capsys):
        failing = CheckReport(
            seed=0,
            fuzz_count=1,
            suites=(
                SuiteResult(
                    name="order-agreement",
                    runs=1,
                    failed=1,
                    failures=("boom",),
                ),
            ),
        )
        monkeypatch.setattr(chatelet.cli, "run_check", lambda **kw: failing)
        assert main(["check", "--fuzz-count", "1"]) == EXIT_CONTRADICTION


class TestParserPlumbing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_INVALID_INPUT

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_INVALID_INPUT
