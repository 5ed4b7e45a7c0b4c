"""Report bytes pinned over thirty-six configs.

Thirty were drawn once from random.Random(17) and are kept here as
literals: census on its table and kernel paths, global, bounds, and
verify with each section choice, over F_2, F_3, F_4, F_5, F_7, F_8, F_9
and F_13 with n from 2 to 5 (q^n <= 729 for verify), linear and
prescribed families.  Six census and bounds configs at the edges of the
bound verdicts follow them.  Each PINNED entry holds the sha256 of the
JSON report and, for the first config of each driver and for the edge
configs, of the CSV report; each EXITS entry holds the message of a
config that the CLI ends with exit code 2.  A change that claims
byte-identical reports keeps every digest, and the last test keeps
tests/report_bytes.py, the tool that compares the digests of two trees,
working.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import pytest

from factpat import census
from factpat.census import (RunConfig, render_csv, render_json, run_bounds,
                            run_census, run_global, run_verify)
from factpat.errors import BudgetError

DRIVERS = {
    "census": run_census,
    "global": run_global,
    "bounds": run_bounds,
    "verify": run_verify,
    "verify-correspondence": partial(run_verify, sections=("correspondence",)),
    "variety": partial(run_verify, sections=("variety",)),
}

PINNED = [
    ("verify-correspondence", RunConfig(p=3, n=2, r=1, rows=((2,),),
                                        alpha=(2,)),
     "62e8e5c1c57f17d192af88300b13064e802317aad0383054603d53ce902b35b3",
     "a6b95f7455beadb2a8f853e7d59d4554db44b4d28873c97d6d36d235cd11c8da"),
    ("verify", RunConfig(p=2, s=2, n=2, mode="prescribed", indices=(1, 2),
                         alpha=(0, 1)),
     "8f5de21ae3911f2f28a18380f0e355c311f697d46631f9c31acdeb846780abfd",
     "77e1b65aafc4e93abc669de3b04a0fda214788222043c9aef96e1bf494b574bf"),
    ("bounds", RunConfig(p=5, n=5, mode="prescribed", indices=(2, 3, 4),
                         alpha=(0, 4, 0)),
     "1aaa06d7d25047ae27a28e469eb3f7458d50ef46d9502e54780348ef33cb2341",
     "2973c612efbdaa585856eb4e697f784436ea7a8728129369aa89effb4fb04ef3"),
    ("variety", RunConfig(p=2, s=3, n=3, mode="prescribed", indices=(1, 3),
                          alpha=(0, 1)),
     "00ee440eec3d123050597debbb6cdd10525c1c171d40b317e4be9b3a6633f08d",
     "827b38e711992dfd8a9fa5834eeba537c558c42393b8b9ee97efd9bef76308a5"),
    ("census", RunConfig(p=3, s=2, n=4, r=1, rows=((7, 8, 3),), alpha=(0,)),
     "2d2b0d81c525adc6930b655ac1413445f770f9693da569c8cacd04a205ac86bb",
     "c0f1dcb3cedf90ee532ff8fac15713d052b4bffeac6cc21fe89026e47da7d5b5"),
    ("verify", RunConfig(p=13, n=2, r=1, rows=((11,),), alpha=(8,)),
     "4f81c39ff8962be324307d76fad6ce356f6d19076e73cc301f568f6bcd194771",
     None),
    ("census", RunConfig(p=3, n=3, r=1, rows=((2, 2),), alpha=(0,)),
     "55aa47706eb5444fc7848b529e057bd6727f401815b63450dca2bf21c629f406",
     None),
    ("census", RunConfig(p=7, n=4, mode="prescribed", indices=(1, 2, 3, 4),
                         alpha=(1, 4, 4, 2)),
     "dc0acd930bb006a2776f95ee23f5100e1e56e2539fab43cea682060f392e29bb",
     None),
    ("global", RunConfig(p=3, s=2, n=5, mode="global"),
     "63e317e2a134cc77de189652dfe5546ebdde92764f5df2f404dc1870c6e712e3",
     "c41a25c8528b0f609c0fea28cca684a6e66b4ae1fe24e69199667a18c6f964e7"),
    ("verify-correspondence", RunConfig(p=3, n=4, r=2, rows=((2, 0),),
                                        alpha=(0,)),
     "02f286f4fbb9461004931beddad6e0d4011d4ecd02df71186995a07aa3392250",
     None),
    ("verify", RunConfig(p=13, n=2, r=1, rows=((8,),), alpha=(12,)),
     "ec1a206224e15089f1306211cd6e875fde6c6a3ba49516398363df354fecd86f",
     None),
    ("bounds", RunConfig(p=2, s=2, n=5, r=2, rows=((1, 3, 2), (1, 2, 0)),
                         alpha=(0, 2)),
     "1c83d05c623713708be16ac9a6b63b307ae535e90a1584b6daed286009887aac",
     None),
    ("census", RunConfig(p=3, s=2, n=2, r=1, rows=((2,),), alpha=(1,)),
     "69feac6d324d11eb33874cbdec49c9ed7d45ed0ddef47beb7aba4f7a94cd3932",
     None),
    ("global", RunConfig(p=2, n=3, mode="global"),
     "07023463622d6c3e0d5ce7ac0064fc0a8134f6d018c73583364d4ae267290524",
     None),
    ("census", RunConfig(p=3, s=2, n=4, r=1, rows=((3, 3, 3), (5, 3, 3)),
                         alpha=(6, 1)),
     "d788f0c9d89f9255e907186a131884352e96625713b7e0484a904b3abd5e50a8",
     None),
    ("census", RunConfig(p=2, s=3, n=5, r=3, rows=((7, 7),), alpha=(1,)),
     "0094bc5a7b4bff877efd07c2a007df9a65b11acf2fba29f661fcc2a3fc738f4e",
     None),
    ("census", RunConfig(p=2, n=5, r=2, rows=((1, 0, 0), (1, 0, 1)),
                         alpha=(0, 1)),
     "58dd3ff8d6145f2c04faecc468560ccf27f0255cb36689caa3a18fc213f14861",
     None),
    ("census", RunConfig(p=2, s=3, n=5, mode="prescribed", indices=(1, 4),
                         alpha=(4, 7)),
     "bdf92819af189867bf4f0cbd6c35049ca844348db7a512c509b2f12a8e1cbb40",
     None),
    ("verify", RunConfig(p=2, n=3, mode="prescribed", indices=(1, 3),
                         alpha=(0, 1)),
     "8501271e078e91d916e1a2a236dcebf5c08f183ae5c3d94ad4f088204bdc17e9",
     None),
    ("verify-correspondence", RunConfig(p=13, n=2, mode="prescribed",
                                        indices=(1, 2), alpha=(10, 6)),
     "847e7fcf8ceb35858bcd1c69f61e784cd7d96659afe376365346ed220349c24f",
     None),
    ("census", RunConfig(p=2, s=3, n=4, r=1,
                         rows=((0, 4, 1), (0, 4, 4), (5, 7, 3)),
                         alpha=(1, 0, 5)),
     "9d4c7b6f2794f1f80a39a9173f75495aedc484a0c36dfcffcf9b3a7794e19927",
     None),
    ("variety", RunConfig(p=2, n=5, mode="prescribed", indices=(1, 2, 3, 4, 5),
                          alpha=(1, 0, 0, 1, 0)),
     "597bdaf03ccf6bffcbb6337bfe0caaf35585952a1fc1a227e08665665a08e6a5",
     None),
    ("global", RunConfig(p=3, s=2, n=4, mode="global"),
     "5d452bb6014bdd8670112ca2d18bfc762d84ad9cc28f92c2a64947d520b50a13",
     None),
    ("census", RunConfig(p=5, n=3, r=1, rows=((3, 0), (0, 3)), alpha=(0, 3)),
     "da165b35f72dd2d1f5c03abaf60c191871bef9a3207d259a7aff7706818bac59",
     None),
    ("variety", RunConfig(p=3, n=5, r=3, rows=((2, 2),), alpha=(2,)),
     "860fbe48a49887335c067e1a3340d242ce2528bbec58e615826f6be386f97224",
     None),
    ("global", RunConfig(p=5, n=5, mode="global"),
     "87806153218939ad52b19b27c761e23f693c347cb45b11af5663c17e9fb137aa",
     None),
    ("bounds", RunConfig(p=5, n=3, r=1, rows=((1, 2), (3, 2)), alpha=(1, 4)),
     "6765dcd88f405de4672bc5ebfb3a60e30ed2323c5c3276f7457e7fbfbede87f6",
     None),
    # the edges of the integer bound verdicts: m = n, where q^(n-m-1) is
    # 1/q; a unit pivot, D = 0, where fp1 has no sqrt(q) term; and a square
    # q, where (x - c)^2 = a^2 q can hold with equality
    ("census", RunConfig(p=5, n=3, mode="prescribed", indices=(1, 2, 3),
                         alpha=(1, 2, 3)),
     "898efaf34de6163cc64434dbd86ab06a552bade54ef37045e4eb67bc9a400b85",
     "b515e4dffd8e8783bb612798c35490e08b9d77d376c3ce38692e387af8ffc874"),
    ("bounds", RunConfig(p=5, n=3, mode="prescribed", indices=(1, 2, 3),
                         alpha=(1, 2, 3)),
     "59ca3ba2a7ef4296a81adfc430a6b2f8936af7f6520016d588f158cde01be013",
     "bdd4c972ef0fd83e3bf4107d04b3de83b9dd5de973fffa8ed884ffa2a3d4d404"),
    ("census", RunConfig(p=7, n=5, r=3, rows=((1, 0),), alpha=(2,)),
     "7c1b2af71dcd869c912d052129027ee5772b0a860d367c393b5f79210c39a786",
     "63e39354f9c7c31f486dd0a76324328a5b1a0e4665c9a9c6729493bb562108fb"),
    ("bounds", RunConfig(p=7, n=5, r=3, rows=((1, 0),), alpha=(2,)),
     "523a6869068564ccac4a3e9d4400648967872d35d4dae97f61008c4d31fe1cb4",
     "e2c9a075e967ff72d0f45f6cf81dd231feef9de3b4c60024497ea6640635c76e"),
    ("census", RunConfig(p=3, s=2, n=5, r=3, rows=((1, 1),), alpha=(0,)),
     "3fb6134730c0c21cdb7b570859518a36578926d36930f2cca85e0c3338ff7f68",
     "99e54b7f4a195275ed27df95ef6d41ef7f5531041f56826c4bcb1725dd7d0a1d"),
    ("bounds", RunConfig(p=3, s=2, n=5, r=3, rows=((1, 1),), alpha=(0,)),
     "1d256c5c2ba6e018ba465a2f183ff0e51f82b7db81b6ca6be932f69e9cbe9159",
     "4253ba5137ce0dfe2403a7fda130524f6509a56387bb95f2d861758316792a72"),
]

EXITS = [
    ("bounds", RunConfig(p=2, n=4, r=2, rows=((0, 1), (0, 1)), alpha=(1, 1)),
     "constraint rows are linearly dependent"),
    ("bounds", RunConfig(p=7, n=4, r=1, rows=((6, 3, 2), (6, 3, 2)),
                         alpha=(6, 6)),
     "constraint rows are linearly dependent"),
    ("verify", RunConfig(p=2, s=3, n=4, r=2, rows=((6, 1),), alpha=(4,),
                         budget=973),
     "global census size 4096 exceeds budget 973"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(driver, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        return DRIVERS[driver](cfg)


@pytest.mark.parametrize("driver, cfg, json_digest, csv_digest", PINNED,
                         ids=[f"{k}-{d}" for k, (d, *_) in enumerate(PINNED)])
def test_report_bytes_pinned(driver, cfg, json_digest, csv_digest):
    report = _run(driver, cfg)
    assert _sha(render_json(report)) == json_digest
    if csv_digest is not None:
        assert _sha(render_csv(report)) == csv_digest


@pytest.mark.parametrize("driver, cfg, message", EXITS,
                         ids=[f"{k}-{d}" for k, (d, *_) in enumerate(EXITS)])
def test_exit_messages_pinned(driver, cfg, message):
    with pytest.raises((ValueError, BudgetError)) as info:
        _run(driver, cfg)
    assert str(info.value) == message


def test_the_pins_cover_fields_degrees_and_both_census_paths(monkeypatch):
    fields = {cfg.p ** cfg.s for _, cfg, *_ in PINNED}
    assert fields == {2, 3, 4, 5, 7, 8, 9, 13}
    assert {cfg.n for _, cfg, *_ in PINNED} == {2, 3, 4, 5}
    assert {cfg.mode for _, cfg, *_ in PINNED} == {
        "linear", "prescribed", "global"}
    assert all((cfg.p ** cfg.s) ** cfg.n <= 729 for d, cfg, *_ in PINNED
               if d in ("verify", "verify-correspondence", "variety"))
    assert {d for d, *_ in PINNED} == set(DRIVERS)
    assert {d for d, *_, csv in PINNED if csv is not None} == set(DRIVERS)
    real_table, real_kernel = census.family_tally, census.pattern_tally
    paths = []

    def table(*args):
        paths.append("table")
        return real_table(*args)

    def kernel(fam, **kw):
        paths.append("kernel")
        return real_kernel(fam, **kw)

    monkeypatch.setattr(census, "family_tally", table)
    monkeypatch.setattr(census, "pattern_tally", kernel)
    for driver, cfg, *_ in PINNED:
        if driver == "census":
            _run(driver, cfg)
    assert set(paths) == {"table", "kernel"}


def test_report_bytes_names_the_config_that_differs(tmp_path):
    # the gate behind every byte-identity claim: equal lines exit 0, and a
    # changed digest exits 1 naming its config
    tool = [sys.executable, str(Path(__file__).with_name("report_bytes.py")),
            "--seed", "0", "--count", "4"]
    first = subprocess.run(tool, capture_output=True, text=True, check=True)
    lines = first.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2", "3"]
    same = tmp_path / "same.txt"
    same.write_text(first.stdout)
    again = subprocess.run(tool + ["--against", str(same)],
                           capture_output=True, text=True)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    k, driver, sha, cfg = lines[2].split(" ", 3)
    lines[2] = " ".join([k, driver, "0" * len(sha), cfg])
    changed = tmp_path / "changed.txt"
    changed.write_text("\n".join(lines) + "\n")
    differs = subprocess.run(tool + ["--against", str(changed)],
                             capture_output=True, text=True)
    assert differs.returncode == 1
    assert differs.stderr.startswith("config 2 differs:")
