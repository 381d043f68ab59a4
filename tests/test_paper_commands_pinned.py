"""The paper's negative controls and Lemma 1 print byte-identical output.

The sha256 of each command's stdout is pinned.  A refactor of the
protocol clients, the ablation variants or the audits may not move a
byte of what these commands print; a deliberate change of their output
re-records the digest here.
"""

import hashlib

import pytest

from repro.cli import main

PINNED = {
    "theorem5 -f 1": (
        "6cf7dee5a35e498ebd996025d2373ee041878628a8c75e11163daf3c46bdfbf6"
    ),
    "theorem5 -f 2": (
        "3cbe9e1085f93092613a004fedd6ae1e6c87095ca7e33949aa6acf2bde75bb81"
    ),
    "theorem5 -f 3": (
        "741568288cb3fb71eeed613cef39d23f706f78dfd1df66d74d644b319c5e9258"
    ),
    "ablate --no-cache": (
        "45f7ec4d9b6bdc75b7b572be9a9c60084dda3c95ad110b699d12c862b8799e24"
    ),
    "experiment TH5": (
        "17a9b0c010d7a16e0820aa498f64f945c7ee302af8270a98c7a60926e53c7511"
    ),
    "experiment ABL": (
        "78cdcb9e51b6f5e00a6959263c26770c714dd521da4bde4446bab202274f3794"
    ),
    "lemma1 -k 3 -n 6 -f 2": (
        "72c7d1d471ea96f1cde4125975cea27f30eeea93f754bf40beb90552c2794f40"
    ),
}


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """``experiment`` caches under ./.repro_cache; keep it out of the repo."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command], out
