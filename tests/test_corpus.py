"""The output corpus: the CLI's commands, run in process over generated
networks and flags, with one SHA-256 pinned per (command, case).

A case is a list of calls.  Its digest covers each call's exit code,
stdout, stderr and the bytes of every file it wrote, in call order, so
a change in any output bit, or in a failing call's exit code or message,
moves a pin.  The files of a call are hashed and removed as soon as it
returns, so the corpus never holds more than one call's files.

The networks come from corpus_networks, a seeded generator kept beside
this module.  A pin that moves is a format change: the change that
moves it names the cases that moved and why.  ``python
tests/test_corpus.py`` prints the table for the code it imports.  Like
the other SHA-256 pins, these depend on the C library's sin, cos, asin
and atan.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest

from omnipipe import network_to_json
from omnipipe.cli import main

from corpus_networks import NETWORK_SEEDS, generated_network

# 30 deg is the centre of a free gap of the reference robot
ROLLS = ("0", "-0.0", "30")
MISSION_VARIANTS = {
    "default": [],
    "no-holonomic": ["--no-holonomic"],
    "deadband10-rate3": ["--deadband", "10", "--rotate-rate", "3"],
    "fixed-ratio": ["--ratio-mode", "fixed-ratio"],
    # a substep that divides no step; plan has no --dt
    "dt0.037": ["--dt", "0.037"],
}
MONTE_CARLO_VARIANTS = {"escape": [], "no-escape": ["--no-holonomic"]}
TRIALS = "2000"
WIDE_LUGS = ["--r", "1e300", "--l", "1e-10", "--reach-min", "1e-10",
             "--reach-max", "1"]
SMALL_ROBOT = ["--r", "10", "--l", "50", "--reach-min", "40",
               "--reach-max", "90", "--module-radius", "15"]
QUERIES = {
    ("fk", "equal-rates"): ["--cmd", "1,1,1,0"],
    ("fk", "mixed"): ["--cmd", "1.5,-2.0,0.25,0.1"],
    ("fk", "small-robot"): ["--cmd", "2,1,0.5,-0.3", *SMALL_ROBOT],
    ("fk", "jacobian-overflow"): ["--cmd", "1,1,1,0", *WIDE_LUGS],
    ("fk", "three-rates"): ["--cmd", "1,2,3"],
    ("ik", "turn"): ["--twist", "0.1,-0.2,0,100"],
    ("ik", "small-robot"): ["--twist", "0.3,0.1,0.5,-40", *SMALL_ROBOT],
    ("ik", "wide-lugs"): ["--twist", "1,1,1,0", *WIDE_LUGS],
    ("ik", "not-a-number"): ["--twist", "a,0,0,0"],
    ("sector", "d160"): [],
    ("sector", "d100-phi30"): ["--d", "100", "--phi-max-deg", "30"],
    ("sector", "d200-reach101.19"): ["--d", "200", "--reach", "101.19"],
    ("sector", "full-contact"): ["--d", "160", "--reach", "120"],
    ("sector", "reach-below-bore"): ["--d", "250"],
}


def cases():
    """(command, case, calls); a call is an argv in which NETWORK and OUT
    stand for the case's network file and output directory."""
    for seed in NETWORK_SEEDS:
        for variant, flags in MISSION_VARIANTS.items():
            for command in ("plan", "simulate"):
                if command == "plan" and "--dt" in flags:
                    continue
                yield command, f"net{seed}-{variant}", [
                    [command, "--network", "NETWORK", "--theta5", roll,
                     "--out", "OUT", *flags] for roll in ROLLS]
        for variant, flags in MONTE_CARLO_VARIANTS.items():
            yield "montecarlo", f"net{seed}-{variant}", [
                ["montecarlo", "--network", "NETWORK", "--trials", TRIALS,
                 "--seed", "7", "--out", "OUT", *flags]]
    for (command, case), flags in QUERIES.items():
        yield command, case, [[command, *flags]]


def digest(case: str, calls: list[list[str]], workdir: Path) -> str:
    """SHA-256 of the calls' exit codes, streams and written files."""
    network = workdir / "net.json"
    if case.startswith("net"):
        seed = int(case[3:].partition("-")[0])
        network.write_text(network_to_json(generated_network(seed)))
    out = workdir / "out"
    sha = hashlib.sha256()
    for argv in calls:
        argv = [{"NETWORK": str(network), "OUT": str(out)}.get(a, a)
                for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            code = main(argv)
        sha.update(f"{code}\n{stdout.getvalue()}\0{stderr.getvalue()}\0"
                   .encode())
        if out.exists():
            for path in sorted(out.iterdir()):
                sha.update(path.name.encode() + b"\0" + path.read_bytes())
            shutil.rmtree(out)
    return sha.hexdigest()


PINS = {
    ('plan', 'net0-default'):
        'c394b483be89370ddbb6a0975b449bbb7ad20be307ea8abed0a6eb5f723e4f58',
    ('simulate', 'net0-default'):
        'bdc1cb425d4f23006f8058aea3ee5304069b2e3cf1904ded3f98fc6863c1296f',
    ('plan', 'net0-no-holonomic'):
        '184d0fe4b6253db3efea16b9fdd59425c678afee27562080bf63b93b28ef314f',
    ('simulate', 'net0-no-holonomic'):
        '77148bd6a148584f9a0950c2db3a84ca9b790800bc57f10b88334558e9b8b0bc',
    ('plan', 'net0-deadband10-rate3'):
        '44473256478f3c21508733d930bca26e7b75fb41e34e93247f8accb53fd85795',
    ('simulate', 'net0-deadband10-rate3'):
        'e8ecd6a93655a46d20836cb1ff2b0c58086d9afa0a9c29f6cba7acee8e6a682b',
    ('plan', 'net0-fixed-ratio'):
        '86098c6a472541df12a0690e7de89e7c2c1ffa6787b910788d0247f1ba2ffb81',
    ('simulate', 'net0-fixed-ratio'):
        '2aabd771fcb5ddb7f534c7e6158b31689967358d1da996a2bd854c7a13187b69',
    ('simulate', 'net0-dt0.037'):
        '4513d82dfc02a56002aaddf9ff5eb87df3b145aca6c0216f5023386268d04024',
    ('montecarlo', 'net0-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net0-no-escape'):
        'd4a52e0ca8723fbbebbcc46a8226999fd280d11493bf52fb7d0bdd024393cdca',
    ('plan', 'net1-default'):
        '177e73fd514a92dfd6d58343033a401d37de26d21bb8d8d9443daccc44bf06b8',
    ('simulate', 'net1-default'):
        'ccbe29dd007944368a26b9ec898df0df8a4a48e133d874b74df08cd1e2aeeb6b',
    ('plan', 'net1-no-holonomic'):
        'a605ad3239ea45115289e83566817b78ebe2111ac401f7f07bab16a4246cd076',
    ('simulate', 'net1-no-holonomic'):
        'b9417b7954199d5592e1075694c1fb290fbf98a0df96f8d2ad6ffbf8a98243c6',
    ('plan', 'net1-deadband10-rate3'):
        'e9d4bc92f9266a4237416188dc9482803e6a2f0b74680b952e42969b8c834521',
    ('simulate', 'net1-deadband10-rate3'):
        '545171169564cb4a823abbe72d210d5f7813ba0921ace6d981b3362bf869f88b',
    ('plan', 'net1-fixed-ratio'):
        '6aa00fbc93b9a747be2ed21553216779bdc262b852f1c735de08ad5b8c08bc59',
    ('simulate', 'net1-fixed-ratio'):
        'b403eea5476a833879532b49bd278c2eddc4d80dba93b125559656ff8fbd4bfd',
    ('simulate', 'net1-dt0.037'):
        '566dadea484d00fb8f4f2579d96bc478ed191c5f309cc4e38d8196786a435d09',
    ('montecarlo', 'net1-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net1-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net2-default'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('simulate', 'net2-default'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('plan', 'net2-no-holonomic'):
        'ed2ecfbd57647963958c82b7eec9525da56e3bd4adf6c904a1efa3142ea43b99',
    ('simulate', 'net2-no-holonomic'):
        '808d8cb5eb3338f3540ad9b06663dd2428e9fed6cfe509148a28b0ac6fd9cfc4',
    ('plan', 'net2-deadband10-rate3'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('simulate', 'net2-deadband10-rate3'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('plan', 'net2-fixed-ratio'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('simulate', 'net2-fixed-ratio'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('simulate', 'net2-dt0.037'):
        'ea2d0b2502ae87b2b431e258a67602747c4c0e849a050e791aa00052998fe52c',
    ('montecarlo', 'net2-escape'):
        'a227abceaf7dd4cb56ebb7aa864d696ff502caf1c3e039330734ea0259b490e9',
    ('montecarlo', 'net2-no-escape'):
        '5b467ef124c4b77579633d3b6bce632fc8394d9942247cc691a504b3ee048373',
    ('plan', 'net3-default'):
        '2ac3a604a3f9aa52dc6a7d0de4c601881b9d8757df448408cd1bb9b4aa164b05',
    ('simulate', 'net3-default'):
        '53856cd815a38e5c42f2bea016b491de75242366658ab84bf91679e8d63c4f18',
    ('plan', 'net3-no-holonomic'):
        'd8231ee97ca2ab25a1a310f357091592e66fa7945d18ff93e9fbf6824b322692',
    ('simulate', 'net3-no-holonomic'):
        '15c2af85f4b549cca1ee7a11a0267d6dd96b0f9737d065aafa523724af884488',
    ('plan', 'net3-deadband10-rate3'):
        '935fada18e3c9f3d1a8c38d38dfa8f27f652152a67627acbcc3f8707c80ca955',
    ('simulate', 'net3-deadband10-rate3'):
        '05bbbc146c4d81ab1ffbe698f33a9ff8c81e1fe12d8c6c4725a101e00064d1ca',
    ('plan', 'net3-fixed-ratio'):
        'bf642fb3e99b63a190230fa91b3a80df8511a55a888dd130e79d9f0727507e6b',
    ('simulate', 'net3-fixed-ratio'):
        '8d383c2e26589b114a716d6f78e7c0b9124da885df7d588b93089e926f5e06a1',
    ('simulate', 'net3-dt0.037'):
        'a6885b86aef3168ba0a42c1bce3d2daba208141e703ee33c4323c9204a82ec30',
    ('montecarlo', 'net3-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net3-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net4-default'):
        'eb751b46859393e8fefa40bdf9292ecec6aa22128f215c5fbf3af943e6f04f2a',
    ('simulate', 'net4-default'):
        '3261db8641668033379d7346155f1c26c4588a0f1e675f5887b38abfac076ed4',
    ('plan', 'net4-no-holonomic'):
        '61fc5ef1eeff7dd0d5c4f6fd9d67493717e6c9a6406d11883d1c1b4ae6ef2802',
    ('simulate', 'net4-no-holonomic'):
        'f04d43bd49637e89b75124af4201b96c30c85b3cd161f89689f642318ecfafad',
    ('plan', 'net4-deadband10-rate3'):
        'f7409bae0785a5f4ccc8724305a05d3557ef91af6ac2a7ff57a0127e041420b2',
    ('simulate', 'net4-deadband10-rate3'):
        '58a8456850eccc6471f0a87e6df3b106ea462753e1d6b05eed022262929e8162',
    ('plan', 'net4-fixed-ratio'):
        '52b250acbae016070c4482a6f69b66b3ff463e7b1803d91b5d633c138b923f7f',
    ('simulate', 'net4-fixed-ratio'):
        '7cbf9711a5683f15b4240ab92ccba41545aa652ba5064900cfa36471eda32cee',
    ('simulate', 'net4-dt0.037'):
        '90d23e5e4fc4663541ee02a7d180fdd27858f292cf20a17ffb4aaa50b83f5b33',
    ('montecarlo', 'net4-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net4-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net5-default'):
        'ec14dba88d72940513f8840ac992fd6e3faf9e0cbf3ab7d1442810149d31b760',
    ('simulate', 'net5-default'):
        'ab5b605e2fe62f93f400388e0b162cf9299722f9f7cd070ff7baa5c8a893b963',
    ('plan', 'net5-no-holonomic'):
        '3d33dd7e251551bd68944f22c3db8387100b80c3777996690a68c0b0f35fd57c',
    ('simulate', 'net5-no-holonomic'):
        '54870353b25180bf6d5792bdef941fa9f2cab7c20e854ac217a3b2497dba28a1',
    ('plan', 'net5-deadband10-rate3'):
        'e3f36e14be2bdf105948280f1b9f5f6727e74db105bd04daa44d5b5e19cfaad7',
    ('simulate', 'net5-deadband10-rate3'):
        'd5c9dcdd157977d78cfc2c6abfdb73ea75211d7c80ad828b0d0b94972bef7f86',
    ('plan', 'net5-fixed-ratio'):
        'd838dce896b78cbc247c5067488b4df39eab562d56cf65a9a5932b1890cda615',
    ('simulate', 'net5-fixed-ratio'):
        'dd507f4d3ac04b63d9483cb9e4ff8b91f9b0acfc529fecb2d140cf17d93b6979',
    ('simulate', 'net5-dt0.037'):
        'afd0d0beaeed3aefbdcd30150d1ec91b5dc602c1a8d19afd002fcef2c8b25bca',
    ('montecarlo', 'net5-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net5-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net6-default'):
        '32ad122bd1fcd83b78a89bb56fda1cae961b5d57c48885fab3034f3bf3ccf191',
    ('simulate', 'net6-default'):
        'ba505ec44bf35d233b50ba1c4af65bf848095027f8a8d26f607fff1bad942773',
    ('plan', 'net6-no-holonomic'):
        '5249b044ad69b790023e7700230ad36f19b4133ea07e3a926f7b116be8b4eb25',
    ('simulate', 'net6-no-holonomic'):
        'ba6ed965653894d1b96bc9fb9c0c345fe45ba77d7653116302c8ed2de7f95640',
    ('plan', 'net6-deadband10-rate3'):
        '4988aee82a239604651f7d56bff9aba9810cc49f002fc68d0d37d2deaf6047a5',
    ('simulate', 'net6-deadband10-rate3'):
        'e93a6cde139f92f7b8a3f637f73edc0587f3eaf3736b43da2973affb9ddd5d09',
    ('plan', 'net6-fixed-ratio'):
        '6120c1498f60eb3c04cf7cea6e880e538a73ac8b58770c165a964db481652086',
    ('simulate', 'net6-fixed-ratio'):
        'a2bdafef2363c80797563760429a04b38ca8c8065ea98d0073a189b338200984',
    ('simulate', 'net6-dt0.037'):
        'd5150519d36dd29ca892f5925ad8d2ddbb53892bfca63321eedc04ecd8e62e3c',
    ('montecarlo', 'net6-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net6-no-escape'):
        '0b651ada6d71e2ae27cc889b8b036307c779701d3d6b288c09f2daaa272a476a',
    ('plan', 'net7-default'):
        '71ee9fa4c4a572bda68ab7974f92f81be5ec9e4fd694ad8c67981f51acbfc4bd',
    ('simulate', 'net7-default'):
        '1a30406c7535115da2573145fe9e8732862da2c18b557be1b3619f60b0ce055f',
    ('plan', 'net7-no-holonomic'):
        '1ce863bf833c72723a911293a5bb75c2bc309eda469f3828db659eda2a4c45c0',
    ('simulate', 'net7-no-holonomic'):
        '43014fb86d5b29ec45076fe951a7d1d311576d6b87025a709b38444e1ab2dde8',
    ('plan', 'net7-deadband10-rate3'):
        '4ec5b35d5f9be9c96068a163899309b07220db19cf0c29e31c49851e86e47ecc',
    ('simulate', 'net7-deadband10-rate3'):
        '1821defe43b4e1ddff388494efbf9569c07d62a177c0d39e0f3d578b5764d9f0',
    ('plan', 'net7-fixed-ratio'):
        '3f22ae4a5fb70a2d6b9ceb33ad1802b05136d85b225066b2227a3c9525c77359',
    ('simulate', 'net7-fixed-ratio'):
        'd13ff3ad86489952fe7fabef55069685fd6c0d15dda19a1ad7c79cf706f5ee95',
    ('simulate', 'net7-dt0.037'):
        '9d363a96c4f9e666b9c10ea0e8dbc6e4ef68eaa9c2ae585e6b8209d40b569b3f',
    ('montecarlo', 'net7-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net7-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net8-default'):
        '8bde4d44596195e168beb374bb9246689727e3d0fae1669357fabe2eeb6673f5',
    ('simulate', 'net8-default'):
        '39a1ca91784f1f3fc6287b4d64a4705c98c2f3ea0f51f75a8cc303aa4172436d',
    ('plan', 'net8-no-holonomic'):
        '4e0d27053971dcc33b53cd2ad59fce90740d9e57a6a23597aade5e9879e7ffcd',
    ('simulate', 'net8-no-holonomic'):
        'a4a77be66552ae7f98440841b732d6e47b38ccdd19308515aa3c22f99d6b580b',
    ('plan', 'net8-deadband10-rate3'):
        'f5db2478bb8d0b9971857ce0d20e84741836bac35e08b246bb7fb91d622d18fc',
    ('simulate', 'net8-deadband10-rate3'):
        'd2d1d429e1bfbbb20723ca02c61304c68335fd16976705a0eef861f11fa684a9',
    ('plan', 'net8-fixed-ratio'):
        'e12fe4a261c568549359c2fecc722ca726ad369c94552d02f31845516c94bd73',
    ('simulate', 'net8-fixed-ratio'):
        '53d92855017051068f6e66ffb2c68215dfe2e5e1e5ab14d8ba2e6732b13037a4',
    ('simulate', 'net8-dt0.037'):
        '83965399e16b81571c5dd5ae25b97ecb50868ef701ebf8628f26955e8207fa0b',
    ('montecarlo', 'net8-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net8-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('plan', 'net9-default'):
        '9c857451e609d7379d1b2cb26e20649a1d8481d92b6ce81e67b081215199c981',
    ('simulate', 'net9-default'):
        '530cb3e1aff388e057805e0c32096fb618ae390e57024533822a480919f60d37',
    ('plan', 'net9-no-holonomic'):
        '39bea87d1a7c31c11e0ea2736e9f1091cdd25af86bf46e7c9ebe14146ed13230',
    ('simulate', 'net9-no-holonomic'):
        'd43d955a14461f3ccd13c6f7ad22764a3a3e00e2b7a7b4c3f71a516fe99d2ce6',
    ('plan', 'net9-deadband10-rate3'):
        '31821c5f452ac5f1e0a55d5abc976ac1d7b22a8b0e304e5d083fd793638558a3',
    ('simulate', 'net9-deadband10-rate3'):
        'cb2f81754ceda1c1ea60fa41ea3d13a8e7100ec301ba533f32a7c055406ff988',
    ('plan', 'net9-fixed-ratio'):
        '6c03d2bbb10f60ba7901ed512bfaac9022e9fd1da789ec13be5f5609c98c852e',
    ('simulate', 'net9-fixed-ratio'):
        '8f5db45bfc89043837bc912c17d07ab4d7d9ddf56aa6a36376ac4ef7ee67c7af',
    ('simulate', 'net9-dt0.037'):
        'bace94f3556084548f24f3615c13a92d50f4e774d0bc9a9e22a52c586db135d9',
    ('montecarlo', 'net9-escape'):
        '78b3248559133595db88f0f35c03c3689284a0e7bfc7c26305b22e8b2b28267b',
    ('montecarlo', 'net9-no-escape'):
        'f69f02b743168c61b9fa6edbd842b3f7508b95ca66efd4c85b7c58973c1f67ae',
    ('fk', 'equal-rates'):
        '9a3f89633575bee2951233afe57e7b2273e46d679d6b2e78a121350a4ef0b1b7',
    ('fk', 'mixed'):
        '121ab25e8328cbdb111484147c87716a4c9bd0539d605132b821443051fbd994',
    ('fk', 'small-robot'):
        '267583fc084df1b5d5f062b5611b2636cb7f9bd1a57a38f155bdb983e43dbde1',
    ('fk', 'jacobian-overflow'):
        '80c12b76bf9e6a02941b86a2a7c0ca19c977d9f509481ac01aafd2706a6b4f52',
    ('fk', 'three-rates'):
        'c188fddc763bfcc735e4182edc400a60b6f1725f1ef8f995835933b4c113033e',
    ('ik', 'turn'):
        'f94c1f4ee18f225d1000a667ea39e99a5654b027e49e574c37585bc3c890ed02',
    ('ik', 'small-robot'):
        '6c99862b8bdf9fe943546491d8c4a68b6033830fbc7a1793e29e45a9849b90db',
    ('ik', 'wide-lugs'):
        'cbb5c2fb6971455f96c49f5f8f18ac8dc2ee56b112e4f9b1991a1e7b0c4356a6',
    ('ik', 'not-a-number'):
        '8de787313cc90914076120fc49f8cb17a2a540590d8908a0af19f8b5303163c6',
    ('sector', 'd160'):
        '421ee21ee91afeb150c478b02929f07e3203d1c10ba9424bef0efd5a01e200e1',
    ('sector', 'd100-phi30'):
        '5845b0da6ed21b2066b2ae0cd2b14e55bd6fa94192cc27313a5a58b52ec2a1d5',
    ('sector', 'd200-reach101.19'):
        '209a900203f147b769ec5982ff8bce19639e4bbc90b778445ef4fd2382081e27',
    ('sector', 'full-contact'):
        '5845b0da6ed21b2066b2ae0cd2b14e55bd6fa94192cc27313a5a58b52ec2a1d5',
    ('sector', 'reach-below-bore'):
        'df5e24012f87e10be3e7922b02dae04fca90fccb150f8942349bad12d9fd77da',
}


@pytest.mark.parametrize("command, case, calls",
                         [pytest.param(*c, id=f"{c[0]}-{c[1]}")
                          for c in cases()])
def test_corpus_output_has_its_pinned_digest(tmp_path, command, case, calls):
    assert digest(case, calls, tmp_path) == PINS[command, case]


def test_every_pin_has_a_case():
    assert {(command, case) for command, case, _ in cases()} == set(PINS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for command, case, calls in cases():
            print(f"    ({command!r}, {case!r}):\n"
                  f"        {digest(case, calls, Path(tmp))!r},")
