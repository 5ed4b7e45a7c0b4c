"""Report bytes pinned over thirty configs.

The configs were drawn once from random.Random(17) and are kept here as
literals: census on its table and kernel paths, global, bounds, and
verify with each section choice, over F_2, F_3, F_4, F_5, F_7, F_8, F_9
and F_13 with n from 2 to 5 (q^n <= 729 for verify), linear and
prescribed families.  Each PINNED entry holds the sha256 of the JSON
report and, for the first config of each driver, of the CSV report;
each EXITS entry holds the message of a config that the CLI ends with
exit code 2.  A change that claims byte-identical reports keeps every
digest.
"""

from __future__ import annotations

import hashlib
import warnings
from functools import partial

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

    def table(fam):
        paths.append("table")
        return real_table(fam)

    def kernel(fam, **kw):
        paths.append("kernel")
        return real_kernel(fam, **kw)

    monkeypatch.setattr(census, "family_tally", table)
    monkeypatch.setattr(census, "pattern_tally", kernel)
    for driver, cfg, *_ in PINNED:
        if driver == "census":
            _run(driver, cfg)
    assert set(paths) == {"table", "kernel"}
