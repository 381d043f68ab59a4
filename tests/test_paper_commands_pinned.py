"""The paper's tables, negative controls and Lemma 1 print byte-identical
output.

The sha256 of each command's stdout is pinned: every registry
experiment, ``theorem5``, ``ablate`` and ``lemma1``.  A refactor of the
protocol clients, the ablation variants, the audits or the experiments
may not move a byte of what these commands print; a deliberate change
of their output re-records the digest here.
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
    "experiment ABL --no-cache": (
        "78cdcb9e51b6f5e00a6959263c26770c714dd521da4bde4446bab202274f3794"
    ),
    "experiment B1 --no-cache": (
        "43f2f528ad599295a00774aab0edbd366a900bc9083cd71bf3296e6bb2d18aba"
    ),
    "experiment F1 --no-cache": (
        "046279bdcc1fe81ae8ad8586c8c80bc0c429a18844d9ec15f46b1afd2820b761"
    ),
    "experiment L1 --no-cache": (
        "b7ca42f46dfb7a211c1273bc77feef8f33677a050b97cd8723ad755d103093ae"
    ),
    "experiment MIX --no-cache": (
        "8b5ca73f20915919b8d5afd4feaad6efb0875b6add33de0b4ea4aac399ce978d"
    ),
    "experiment MULTI --no-cache": (
        "70fdda5fee0c6db7ba2c830c3517544cc0ef7af6220e67255175c1f5fb24c1a4"
    ),
    "experiment OPS --no-cache": (
        "0f965f03fa2204d0f26a59fb18436e827738dee4b7f13f23eb30e8f9ac1bc019"
    ),
    "experiment OQ --no-cache": (
        "2474bd4ec39be1b566b584eadc7b714afc4ea7a60ce823a8b6e128ad153b66c3"
    ),
    "experiment SEP --no-cache": (
        "33caa26a249068ba910b71f570a14390ee644470b6f75e02c799a1d3c02a4b02"
    ),
    "experiment SIM --no-cache": (
        "d8194a8742f62397b6689fb4c470913eea6cb253121dcc16ebcbe591bae034d1"
    ),
    "experiment T1 --no-cache": (
        "53a5e12737b826cb6a21db9497a3f635e71d6387d5b55d39316911d0c36cb908"
    ),
    "experiment T1-sweep --no-cache": (
        "574eb4664e58ff9eb2eafdeec5c37e64ffb7628f92d52400a006a8df6fa290b0"
    ),
    "experiment TH1 --no-cache": (
        "75300b0d7b3157e1323ec8376299f8667c931af2a1d30b1ec931c3c2e1c010f0"
    ),
    "experiment TH2 --no-cache": (
        "b4c80cbf5081d6e38e0d2b0b3ae274490ead5215643bf73bdee896b430a4b922"
    ),
    "experiment TH5 --no-cache": (
        "17a9b0c010d7a16e0820aa498f64f945c7ee302af8270a98c7a60926e53c7511"
    ),
    "experiment TH6 --no-cache": (
        "7b63023a81ff07f8a2930ee36014aee51f0a1acae66e4cc001a252ef408f7530"
    ),
    "experiment TH7 --no-cache": (
        "eee78340fbc1a06a8105844a0c4b9db4ce83515e30188c1746d2f584846e7ce6"
    ),
    "experiment TH8 --no-cache": (
        "b894c1a926311fe1700ec022e22c80b10302372888eef6d539e852b1d457e63e"
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
