"""CLI output compared byte for byte with the files under tests/golden, so a
change inside the pipeline cannot silently change what the CLI prints."""
import os

import pytest

from chowops.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    ("table_P8_p2_coh.json",
     ["table", "--variety", "P^8", "--p", "2", "--convention", "coh"]),
    ("table_Q7_p3_hom.json",
     ["table", "--variety", "Q_7", "--p", "3", "--convention", "hom"]),
    ("table_P2xP3_p2.csv",
     ["table", "--variety", "P^2xP^3", "--p", "2", "--format", "csv"]),
    ("table_P1xP1xP2_p3.json",
     ["table", "--variety", "P^1xP^1xP^2", "--p", "3"]),
    ("operate_Q7_p2_mixed.json",
     ["operate", "--variety", "Q_7", "--p", "2",
      "--class", '{"h^1":"1","h^3":"-2","l_2":"3","l_0":"5"}']),
    # every datum product() builds: cells, table, degrees, tangent, tau
    ("describe_P1xQ3xP1.json", ["describe", "--variety", "P^1xQ_3xP^1"]),
    # tau columns built on first read: [Z] Todd(T_Z) and a Kunneth one
    ("describe_P8.json", ["describe", "--variety", "P^8"]),
    ("describe_P2xP2.json", ["describe", "--variety", "P^2xP^2"]),
    # a quadric's own columns, h^i and l_i, above the default dimension cap
    ("describe_Q15.json", ["describe", "--variety", "Q_15"]),
    # verify reports: the Bott split of theta^p and the Chern engine
    ("verify_bott_seed5.json", ["verify", "--suite", "bott", "--seed", "5"]),
    ("verify_whitney_seed5_trials5.json",
     ["verify", "--suite", "whitney", "--seed", "5", "--trials", "5"]),
]
MAX_DIM = {"describe_Q15.json": "15"}  # STEENROD_MAX_DIM, else unset


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsysbinary, monkeypatch, name, argv):
    if name in MAX_DIM:
        monkeypatch.setenv("STEENROD_MAX_DIM", MAX_DIM[name])
    else:
        monkeypatch.delenv("STEENROD_MAX_DIM", raising=False)
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()
