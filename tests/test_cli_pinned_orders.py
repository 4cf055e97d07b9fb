"""Digests of the CLI calls that derive an order from an image order.

``classify`` and ``extgraph --layout`` under ``pi`` orders read the image
order of an instance file, or the block order of a clustering word source;
``cluster`` and ``bwt`` print the block order of a transform.  Each call's
stdout is pinned by its SHA-256 digest, so a rewrite of how these orders
are carried cannot change a byte of what is printed.
"""

import hashlib
import pathlib

import pytest

from ietkit.cli import main

ROOT = pathlib.Path(__file__).parent.parent

# (arguments, split on spaces, and the SHA-256 digest of stdout); every call exits 0.
PINNED = [
    ("classify --source iet:tests/data/golden.iet --depth 4 --orders pi:A",
     "8a1da630efa3df28d9d55806841d91db8d13e43e49d38d3867d9c7a6564290af"),
    ("extgraph --source iet:tests/data/golden.iet --word ε --orders pi:A --layout",
     "61cd5a70d6e4bb0e07788e7bf48736e07c8c950bfaff25e3c3c3b44ffbfa2c4e"),
    ("extgraph --source iet:tests/data/golden.iet --word b --orders pi:A --layout",
     "944c00da71e806a8f85d1ff34221199fdce056fc22527bc797fc4d852f145262"),
    ("classify --source iet:tests/data/golden.iet --depth 4 --orders A:pi",
     "22c6d7bb441adb38f9790095c1d386789f56384a1b6af5262217ec82256cb5b3"),
    ("extgraph --source iet:tests/data/golden.iet --word ε --orders A:pi --layout",
     "a6c38b948c0443a6894249fc1b5efa35974d64a14b9ce9c1486d41ff6dcf3ec4"),
    ("extgraph --source iet:tests/data/golden.iet --word b --orders A:pi --layout",
     "369347c2e1fdd2e49e9a15ebe904886898a45ffc7bbc4f40fa5ee1d5b99ea20d"),
    ("classify --source iet:tests/data/golden.iet --depth 4 --orders pi:pi",
     "22c6d7bb441adb38f9790095c1d386789f56384a1b6af5262217ec82256cb5b3"),
    ("extgraph --source iet:tests/data/golden.iet --word ε --orders pi:pi --layout",
     "17925287a33879b3caae376348304c8b2f7bebe2303f541a7e9ce82971c4f2fd"),
    ("extgraph --source iet:tests/data/golden.iet --word b --orders pi:pi --layout",
     "79f228d1838a8f9b0f295b346ee66704646585874b3d3aa4ea1f09c5292f28b1"),
    ("classify --source iet:tests/data/sqrt2_4.iet --depth 4 --orders pi:A",
     "883114498eb36e714402e66fba41368a98311b7d7cb648a83835fcf80fe71117"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word ε --orders pi:A --layout",
     "4ab026b65c5a0076cc74e215b5bd6bff53ce6e43db9bbf3b863af968cabdb5ff"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word b --orders pi:A --layout",
     "3654edeed7f0567b05860c82163e8629c9403343a1bc3b0425dd5319ab4ace70"),
    ("classify --source iet:tests/data/sqrt2_4.iet --depth 4 --orders A:pi",
     "883114498eb36e714402e66fba41368a98311b7d7cb648a83835fcf80fe71117"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word ε --orders A:pi --layout",
     "c1d562fb9ff4c4a5cf9d57dfad60df1866f98f41b73d3ed7fbc19983474b1b31"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word b --orders A:pi --layout",
     "7b1095d717ee27f44d8013b813d85cc604ff71027d8790b233fc59aa85c90d5a"),
    ("classify --source iet:tests/data/sqrt2_4.iet --depth 4 --orders pi:pi",
     "62c7d5a4f48986322bcb5a312b3ce5ce6873b29f3c6662e54d0fc63f9d86d448"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word ε --orders pi:pi --layout",
     "4e31dbd64ef0bea14380c8d44b9725235a32103e0a4745e825d502c186a5a10f"),
    ("extgraph --source iet:tests/data/sqrt2_4.iet --word b --orders pi:pi --layout",
     "45be2c48cef0be97114f8841bfbbc9c92ad26b6e3c4f847db3ccef3bc6f830ad"),
    ("classify --source periodic:abbacac --depth 4 --orders pi:A",
     "60d06096b1eaf5496b572ca7e860d8a24681c5f75e36f43e00d7869eb56600c6"),
    ("extgraph --source periodic:abbacac --word ε --orders pi:A --layout",
     "b50c5a8829e2056e3916b9a9723d01958232cba6e06836b5860dc70b00493202"),
    ("extgraph --source periodic:abbacac --word b --orders pi:A --layout",
     "a3669dafc9a34d33a6aa35074140656fd9759a618a676877affaa045b0246945"),
    ("classify --source periodic:abbacac --depth 4 --orders A:pi",
     "60d06096b1eaf5496b572ca7e860d8a24681c5f75e36f43e00d7869eb56600c6"),
    ("extgraph --source periodic:abbacac --word ε --orders A:pi --layout",
     "5223d8feaa7a9d832115a1def746be2189862474c4eb0cc85c78f82cde06669f"),
    ("extgraph --source periodic:abbacac --word b --orders A:pi --layout",
     "882f2aace00eb6504b41b30e3bb74550061a0fab3d912af3cb74d3d01020194e"),
    ("classify --source periodic:abbacac --depth 4 --orders pi:pi",
     "9f8acf0a59d94499ce58be032a5aab52a5321fd47d30f9867d9f0c057d4a113e"),
    ("extgraph --source periodic:abbacac --word ε --orders pi:pi --layout",
     "d73b77742d919374cb0ec0e44b04910bd8002031c51371683d7024da8a71de58"),
    ("extgraph --source periodic:abbacac --word b --orders pi:pi --layout",
     "c14e4f9aada21a992255c80df04dee1c87ac99945c5bccb3b5f4469dba293920"),
    ("classify --source multiset:abb,acb --depth 4 --orders pi:A",
     "e3ef95fb7af94ade5d9227f4c1091a83340d687a82f2441f6836e99c394f321f"),
    ("extgraph --source multiset:abb,acb --word ε --orders pi:A --layout",
     "c3589b43c5a59536a6a9f2dc7e45211d38b01105fd1e36e1f2cd5c4dc436a741"),
    ("extgraph --source multiset:abb,acb --word b --orders pi:A --layout",
     "a642d3fc0d6b23b1942c1592fdc1df2977c3570627ba04d62869bc1c9dddbd34"),
    ("classify --source multiset:abb,acb --depth 4 --orders A:pi",
     "3b7403784e55ae6b8107280658cd4bd4b9b3cf1323d65bc800c6d912c48a9f8f"),
    ("extgraph --source multiset:abb,acb --word ε --orders A:pi --layout",
     "3700c4f89899231663cabbfb4c868fde1b195eacf2d442b1b0bd155e93386ef5"),
    ("extgraph --source multiset:abb,acb --word b --orders A:pi --layout",
     "d10858fdac1221d84bf246083d60bcc38b1481913a9ec085690fd8e83aa3ed72"),
    ("classify --source multiset:abb,acb --depth 4 --orders pi:pi",
     "3b7403784e55ae6b8107280658cd4bd4b9b3cf1323d65bc800c6d912c48a9f8f"),
    ("extgraph --source multiset:abb,acb --word ε --orders pi:pi --layout",
     "f8c9fb907fd595f8ea37f04c9a3051a2dd4604e503ee4fcb505f57e5baf1ab56"),
    ("extgraph --source multiset:abb,acb --word b --orders pi:pi --layout",
     "b4feba48cdb99a6433ad7a736251cce390a8c654b755be3fd7d9d9048b2adf8c"),
    ("cluster --alphabet abc --json - abbacac",
     "3d3061d2c154e2758ea3e582a113789ab319cfdd6b934cd58629037ebc0152a9"),
    ("bwt --alphabet abc --json - abbacac",
     "1a1768814f67e2c0cf6852f8c3f3f890ea13e19bae66d7da5db9bacd2a62ec0e"),
    ("cluster --alphabet abc --json - abcab",
     "2495cf947ca6c512e926586e54461625865548a46b1cc683e0f46e1512c8e975"),
    ("bwt --alphabet abc --json - abcab",
     "8aa2dcedbdec53be5ae7f6d7111ad1d4f8bd91a8c2267114941077008f852712"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_stdout_is_pinned(monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(ROOT)  # the instance paths are printed as given
    assert main(argv.split(" ")) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# A multiset source whose entries are rotations or powers of Lyndon words has
# the language, and so the pi order, of those Lyndon words.
CONJUGATE_SOURCES = [
    ("multiset:aca,ba", "multiset:aac,ab"),
    ("multiset:baba", "multiset:ab"),
    ("multiset:caa,abab", "multiset:aac,ab,ab"),
]


@pytest.mark.parametrize("command", ["classify --depth 4", "extgraph --word ε --layout", "extgraph --word a --layout"])
@pytest.mark.parametrize("orders", ["pi:A", "A:pi", "pi:pi"])
@pytest.mark.parametrize("sources", CONJUGATE_SOURCES, ids=[" ".join(pair) for pair in CONJUGATE_SOURCES])
def test_a_multiset_pi_order_depends_on_the_conjugacy_classes_only(capsys, command, orders, sources):
    printed = []
    for source in sources:
        argv = command.split(" ") + ["--source", source, "--orders", orders]
        assert main(argv) == 0
        first, rest = capsys.readouterr().out.split("\n", 1)
        assert first == f"source: {source}"
        printed.append(rest)
    assert printed[0] == printed[1]
