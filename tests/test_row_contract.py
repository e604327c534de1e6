"""The data-row contract, pinned: SHA-256 of the CSV data rows of fixed runs.

The digest of a run covers every CSV file it writes, in name order: the
file name, then its header and data rows with the '#' provenance lines
dropped.  These runs write only integer counts, Python float divisions
of them and float statistics of a few such ratios, or quantities of
geometric:0.5 and delta:3 whose powers of 1/2 and renewal prefix sums
are exact (sequences of at most 64 terms take no transform), or renewal
tables of a single atom, the exact indicator of its multiples with their
integer counts, so the digests do not depend on SIMD, BLAS or the
machine.  A change that moves
one of these rows must say so in CHANGES.md and update the digest here.
"""

import hashlib
import warnings

import pytest

from ergosum import cli

CONTRACT = [
    pytest.param(
        ["rank-one", "--preset", "odometer", "--seeds", "3",
         "--checkpoints", "0,1,5,4096,5000"],
        "0a5b0ec3433c14f12df3c44ef0543bc22a93d15318823993d7e4107e6e7f94ab",
        id="odometer-checkpoint-0"),
    pytest.param(
        ["rank-one", "--preset", "chacon", "--seeds", "4",
         "--checkpoints", "dyadic:0:30"],
        "00c501f8ae5c3c15c5dd9e9a939ffb7908beb7d0ba966eca011698c1daf2476e",
        id="chacon"),
    pytest.param(
        ["rank-one", "--preset", "heavy2q", "--seeds", "4",
         "--checkpoints", "dyadic:0:30"],
        "59c78ec9c7b18ec3b429b9204730f8931694549f4163f705c127ade68c24f1aa",
        id="heavy2q"),
    # 14 and 15 of these windows reach offsets past 2^62
    pytest.param(
        ["rank-one", "--preset", "heavy2q", "--seeds", "4",
         "--checkpoints", "dyadic:56:62"],
        "08dc49bb0b92a57841e945093ea26109039193cf30ad0ea5d5559916c9514cc1",
        id="heavy2q-past-int64"),
    pytest.param(
        ["rank-one", "--preset", "chacon", "--seeds", "4",
         "--checkpoints", "dyadic:56:62"],
        "8c5b5d07953f62c7a696784ac63785e693c236699a5cfbadd32ec7e6ff220e1d",
        id="chacon-past-int64"),
    pytest.param(
        ["rank-one", "--preset", "chacon", "--seeds", "3", "--checkpoints", "13"],
        "5eee3df47b08f77b3f0badefc1370c831ea363f36048507bf14c61302753e9c8",
        id="chacon-radius"),
    pytest.param(
        ["translate", "--alpha", "golden", "--x", "0.3", "--grid", "dyadic:0:12"],
        "7b3f5cee1b67d349a654c4fa61c4bc612067b532211493cefb9ae566d82824aa",
        id="translate-golden"),
    pytest.param(
        ["translate", "--alpha", "sqrt2", "--beta=-1", "--x", "0.1",
         "--grid", "dyadic:0:12"],
        "c8b72d0670b0759463fa1d394f1a4e0e814a095992a8f8fb9f08f962d4826231",
        id="translate-sqrt2"),
    pytest.param(
        ["regvar", "--scaling", "rankone:heavy2q", "--p", "2,4,8",
         "--n-lo", "16", "--n-hi", "65536"],
        "0a3f9c0c2cc06c7c6b7d3592f0a570962cb7bce9d9d14cf7097ccd161ebacf48",
        id="regvar-rankone-heavy2q"),
    pytest.param(
        ["regvar", "--scaling", "tm:geometric:0.5", "--p", "2", "--n-lo", "1", "--n-hi", "64"],
        "583cc93d348971d73e4ba8a9733ec38ed221b5ca74fe8dff7fa722ef4a176d4f",
        id="regvar-doubling-geometric"),
    pytest.param(
        ["walk", "--dist", "geometric:0.5", "--N", "63", "--seeds", "4"],
        "e8b61a369507a323251ea8a5e661b412971490ec96507549fcf3b544937a9f98",
        id="walk-geometric"),
    pytest.param(
        ["walk", "--dist", "delta:3", "--N", "60", "--seeds", "2"],
        "7fd6c2cd5a7548ba339f44b4b78bced2a2e852c8bb0b7436bc91485ac2002dd9",
        id="walk-delta"),
    pytest.param(
        ["trimmed", "--dist", "geometric:0.5", "--n", "64", "--trials", "5"],
        "2b9a4eff42ea0790fad691e53f05f8b4ab003bb1739fd4a569b98f8bfee40194",
        id="trimmed-geometric"),
    pytest.param(
        ["dyadic-tail", "--dist", "geometric:0.5", "--n", "12"],
        "ac1e18d15db0bd85276b525dabcd875a283057dd2491c24518007757ac6d3d3f",
        id="dyadic-tail-geometric"),
    # 4 divides the array writer's 2,048-row block, so every u block after the
    # first repeats
    pytest.param(
        ["renewal", "--dist", "delta:4", "--n", "5000"],
        "a12d462ea7d264eaea2b97c3c071dbd9c13def403d51469186496a8a6ff2552f",
        id="renewal-delta4-repeated-blocks"),
    # 3 does not, so no u block repeats its neighbour
    pytest.param(
        ["renewal", "--dist", "delta:3", "--n", "5000"],
        "b75ec815804f32adf6cd06c64efb146c554989f7cd31039b4b69679c4971a2c0",
        id="renewal-delta3-no-repeats"),
    # three blocks of IEEE quotients, squares and compensated sums of powers
    # of 1/2: the same with NumPy's X86_V4 and X86_V3 dispatch disabled
    pytest.param(
        ["queen", "--dist", "geometric:0.5", "--n", "600"],
        "283367dd5fe3475c2c3d28231ffc0b131d19e66df286b2229bd73b9c3fa79110",
        id="queen-geometric"),
]


def data_digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\n")
        with open(path, "rb") as fh:
            h.update(b"".join(line for line in fh if not line.startswith(b"#")))
    return h.hexdigest()


def test_every_subcommand_is_pinned():
    assert {param.values[0][0] for param in CONTRACT} == set(cli.RUNNERS)


@pytest.mark.parametrize("argv,digest", CONTRACT)
def test_data_rows_pinned(argv, digest, tmp_path):
    with warnings.catch_warnings():
        # the beta_lower_hat review flag fires on some of these ensembles
        warnings.simplefilter("ignore", UserWarning)
        assert cli.main([*argv, "--seed", "7", "--out", str(tmp_path)]) == 0
    assert data_digest(tmp_path) == digest
