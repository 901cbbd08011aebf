"""Served payloads pinned across the front-end consolidation.

SHA-256 digests of every :meth:`repro.api.Session.execute` payload
(minus its wall-clock ``timings`` block) and its diagnostics, for
``analyze``, ``advise`` and ``transform`` on the 12 workloads' train
and ref inputs, the multi-unit program and the three programs the
isolated-parse front end used to hand to the serial parser.  The
digests were taken while that front end still existed, with its one
extra diagnostic (the note saying it fell back to the serial parser)
left out; everything else a client sees must stay byte-identical.

``compare`` digests, taken while a verified compare still simulated
each program up to three times, pin the compare that reuses the runs
a compile recorded: greedy and seeded-SA compares of the three search
workloads (search stats minus their wall-clock ``elapsed_s``), and
the CLI demo program with verification off.
"""

import hashlib
import json

import pytest

from repro.api import CompileOptions, CompileRequest, SearchOptions, \
    Session
from repro.workloads import ALL_WORKLOADS, get_workload

from .test_cli import DEMO
from .test_parallel_fe import FALLBACK_PROGRAMS, MULTI_TU


def _programs() -> dict:
    out = {f"{w.name}/{input_set}": (w, input_set)
           for w in ALL_WORKLOADS for input_set in ("train", "ref")}
    out["multi-tu"] = MULTI_TU
    out.update({f"fallback/{name}": sources
                for name, sources in FALLBACK_PROGRAMS.items()})
    return out


PROGRAMS = _programs()


def _sources(name: str) -> list[tuple[str, str]]:
    entry = PROGRAMS[name]
    if isinstance(entry, tuple):
        workload, input_set = entry
        return workload.sources(input_set)
    return entry


def _digest(reply) -> str:
    payload = {k: v for k, v in reply.payload.items() if k != "timings"}
    blob = json.dumps({"payload": payload,
                       "diagnostics": reply.diagnostics}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


PAYLOAD_DIGESTS = {
    ("179.art/ref", "advise"):
        "54247dbdb4563cf2cc8f505f471b0253d44f7c3847a2f8c6bc1ef98ceffb986c",
    ("179.art/ref", "analyze"):
        "a1e9d69098f671c437d14a61f1ab6580ec1a0d48b9e5e4b74bf7cf71fcdf7b8c",
    ("179.art/ref", "transform"):
        "f4967ba30d28ef44937a75e783b7309bc3f133d1309c59b545bbc1a10b245e4f",
    ("179.art/train", "advise"):
        "54247dbdb4563cf2cc8f505f471b0253d44f7c3847a2f8c6bc1ef98ceffb986c",
    ("179.art/train", "analyze"):
        "a1e9d69098f671c437d14a61f1ab6580ec1a0d48b9e5e4b74bf7cf71fcdf7b8c",
    ("179.art/train", "transform"):
        "c1f37cffa3746df93343dd482821ad6fe5155faaac5a08ca89f2d2626389532b",
    ("181.mcf/ref", "advise"):
        "32f0a7dfc5b6cd7e042b9a88c3715f6e6191804599479d08523d4b8f73bf5f08",
    ("181.mcf/ref", "analyze"):
        "24b3b9003c610e3fe2953ac48d34f74f827d99ce02aeaa2ddb50e255cafb5ec8",
    ("181.mcf/ref", "transform"):
        "2518d08de374b465e61a152e868ac8f70bcd86f2d3679abc9bb9f008c6cdc246",
    ("181.mcf/train", "advise"):
        "32f0a7dfc5b6cd7e042b9a88c3715f6e6191804599479d08523d4b8f73bf5f08",
    ("181.mcf/train", "analyze"):
        "24b3b9003c610e3fe2953ac48d34f74f827d99ce02aeaa2ddb50e255cafb5ec8",
    ("181.mcf/train", "transform"):
        "004f8fb195c8354ff226b47834177a02bafc69dbba6c6f5c00d8a800c3f444d2",
    ("cactusADM/ref", "advise"):
        "e83820da60a8bec3dc3e967732e65ec4bae0e8b3dead1c3ac3608c93f56b28c2",
    ("cactusADM/ref", "analyze"):
        "86e28122ef3b7019f4da802e2ff2c72b4af72b61c518339d96c7a10231a0f9d7",
    ("cactusADM/ref", "transform"):
        "e1dfc18c9986cdff4e37774b8a57e4ea032b2b5e418cd8dc2dd800f35f31acb2",
    ("cactusADM/train", "advise"):
        "e83820da60a8bec3dc3e967732e65ec4bae0e8b3dead1c3ac3608c93f56b28c2",
    ("cactusADM/train", "analyze"):
        "86e28122ef3b7019f4da802e2ff2c72b4af72b61c518339d96c7a10231a0f9d7",
    ("cactusADM/train", "transform"):
        "52517426d6c2d2ba79e45ac7bc362425fe83dbc991f086b7e13e89cd21438087",
    ("calculix/ref", "advise"):
        "7202d609645f81d62a83e2754fb0767c4e20835da11e8c3c909e7f81a143f7e5",
    ("calculix/ref", "analyze"):
        "2c70742b7e17bb61341d6d971954f900ed951afc4f5293fdcda3255f30eeb9d5",
    ("calculix/ref", "transform"):
        "79e33fa92e97aee2730ce05c32a316e256ac83e77c0eabeab5c76895788cacf4",
    ("calculix/train", "advise"):
        "7202d609645f81d62a83e2754fb0767c4e20835da11e8c3c909e7f81a143f7e5",
    ("calculix/train", "analyze"):
        "2c70742b7e17bb61341d6d971954f900ed951afc4f5293fdcda3255f30eeb9d5",
    ("calculix/train", "transform"):
        "264d9bc9d02729e595549e886a01b4f095965696e7f09da37721c45e074d422d",
    ("fallback/parse-error", "advise"):
        "118e793e51968f30535291fc1a033c78cec7657321d8c983aca356cf7dbb7e4a",
    ("fallback/parse-error", "analyze"):
        "45b3fbc22e258370dc9d006973b403709a0921b4121c3285203832579bdb1150",
    ("fallback/parse-error", "transform"):
        "7a31b58c9f084ef58bbd4ed2102e53875116e19cecdb21e01ce8093fca280258",
    ("fallback/redefinition", "advise"):
        "b1cd58ef10909090975773531e0049f1c622a2d598ebadb9b6f478c780d55d6e",
    ("fallback/redefinition", "analyze"):
        "f4e780a37adb0cdf5918026442a637fa0d56b563607c9bab36ef088f64004e67",
    ("fallback/redefinition", "transform"):
        "71e4a3cfa06745f466809c9912b43615dd5b987c2e57f3c9ea364bca67b8fea1",
    ("fallback/typedef-dup", "advise"):
        "596629b87d440ac9a8b0534ffb94942050cf354e16b5481a8590afe7c64da048",
    ("fallback/typedef-dup", "analyze"):
        "86ce35648a036744505dc3c5a70fb8821ffe5b49fea80ae3f3e689133efd2f84",
    ("fallback/typedef-dup", "transform"):
        "5df372a20bb68b803f15830b5f360913eb78e36faf78c3a67cd679f38be7bce2",
    ("gobmk/ref", "advise"):
        "a775bed9659fee5f592616edc5b5f3d9dd2b6c43b3f086b776477d23d8edd478",
    ("gobmk/ref", "analyze"):
        "98bd77857a10cfb54038739e3d739058d5a17d36c82f04bbb6751fc07f6a3091",
    ("gobmk/ref", "transform"):
        "e1ce6cb1c6af392e8a532115047303a4fd881b9cafc162b24e483032ac5b7f3c",
    ("gobmk/train", "advise"):
        "a775bed9659fee5f592616edc5b5f3d9dd2b6c43b3f086b776477d23d8edd478",
    ("gobmk/train", "analyze"):
        "98bd77857a10cfb54038739e3d739058d5a17d36c82f04bbb6751fc07f6a3091",
    ("gobmk/train", "transform"):
        "721d71b5afd3ba3a95ae7ade2f00b3920ac86ba8030fafcf5289ba394fa9e54f",
    ("h264avc/ref", "advise"):
        "91a29c7388fcd5cf32880ed1453577f5f6f8ee1feabc6570ea4e726b1648cecf",
    ("h264avc/ref", "analyze"):
        "cfac67aa6085f338831925d8cd2539b38dcc5d7ea1bc1f16d2e2dfdbfa5b85ac",
    ("h264avc/ref", "transform"):
        "2ddfd31f4db42a9a53b63a69a1f91128c50463bfdc5a9c267885807d4fb7cdd6",
    ("h264avc/train", "advise"):
        "91a29c7388fcd5cf32880ed1453577f5f6f8ee1feabc6570ea4e726b1648cecf",
    ("h264avc/train", "analyze"):
        "cfac67aa6085f338831925d8cd2539b38dcc5d7ea1bc1f16d2e2dfdbfa5b85ac",
    ("h264avc/train", "transform"):
        "6b67e9d73ca15c852488882a81d33fcbd22f75e0e07ad06b61fed20539a1ad6b",
    ("lucille/ref", "advise"):
        "ccb77aab1252229173f17ff2f0f5f1ce9f55c07d622ecd33725018ed95f8b226",
    ("lucille/ref", "analyze"):
        "0689ba6f24cfe2a869fe3288eb7db05f9f97d27c761e07fc1f9d96fddd3ef6fd",
    ("lucille/ref", "transform"):
        "5871d44f01b7a846c2e373ef35800b9fc17faedd3ae4daa9421e2af42e15da8c",
    ("lucille/train", "advise"):
        "ccb77aab1252229173f17ff2f0f5f1ce9f55c07d622ecd33725018ed95f8b226",
    ("lucille/train", "analyze"):
        "0689ba6f24cfe2a869fe3288eb7db05f9f97d27c761e07fc1f9d96fddd3ef6fd",
    ("lucille/train", "transform"):
        "76047c5b822efb58712de26550fb4c1974ed9f86dcc9af712cc23117e22dc515",
    ("milc/ref", "advise"):
        "a9ca627f5234be5d98c7a67d811c52f9069449a4138205e5a363061bd145e52c",
    ("milc/ref", "analyze"):
        "69399a3ebd66e93d7dccd738447a1a0f0f96cb9099e9a871baf231b2b321da40",
    ("milc/ref", "transform"):
        "474188bf3c8f645f9a9b08a01ab42f149cd358c16abf51cbefeffb669e65173b",
    ("milc/train", "advise"):
        "a9ca627f5234be5d98c7a67d811c52f9069449a4138205e5a363061bd145e52c",
    ("milc/train", "analyze"):
        "69399a3ebd66e93d7dccd738447a1a0f0f96cb9099e9a871baf231b2b321da40",
    ("milc/train", "transform"):
        "fdab1b147160d5af949bc96ee52ee95f02621875b8880ac553b8cd685a176fb1",
    ("moldyn/ref", "advise"):
        "96135b20312957b458c25e9f3bbad77303fc9e414c27299cf416d82dc59eaae0",
    ("moldyn/ref", "analyze"):
        "7804e7dcf722d7c4b18d470a124cb28a9bb7249f3d69a3e53b1757ac2970e0d5",
    ("moldyn/ref", "transform"):
        "12517542108cb76590015644eb2d3be3bc0535f8d533f4b7271cfba61cad47b7",
    ("moldyn/train", "advise"):
        "96135b20312957b458c25e9f3bbad77303fc9e414c27299cf416d82dc59eaae0",
    ("moldyn/train", "analyze"):
        "7804e7dcf722d7c4b18d470a124cb28a9bb7249f3d69a3e53b1757ac2970e0d5",
    ("moldyn/train", "transform"):
        "a58f50cbb49378fb5d0d48a9783e7ce4612c8e7c3485260fb36e5cda4c49ebd2",
    ("multi-tu", "advise"):
        "7546d709b51a97d795b9738d220c54327200ce9996b6a1bfd356f01e39597147",
    ("multi-tu", "analyze"):
        "3c8fd5231309e8928578637d877c1e6ffa4c12258843cfa13860c23a9378e45d",
    ("multi-tu", "transform"):
        "3f8fe1f7dc7c06fd6e11962ad0007505cbf015af1668ea4006233e40e21a27bb",
    ("povray/ref", "advise"):
        "45a34291d17967c81a965c4e58cc5492fe600277db0d4c65a3403872cb913023",
    ("povray/ref", "analyze"):
        "26bcee8ebe3591b5686910b7ea4991e2b8a468a354d23f64f61cf56a58da930c",
    ("povray/ref", "transform"):
        "72e4d5c5a263abea024a5d8529da68d7547ae9effe552f3447bb5036ebb34452",
    ("povray/train", "advise"):
        "45a34291d17967c81a965c4e58cc5492fe600277db0d4c65a3403872cb913023",
    ("povray/train", "analyze"):
        "26bcee8ebe3591b5686910b7ea4991e2b8a468a354d23f64f61cf56a58da930c",
    ("povray/train", "transform"):
        "c670256de43f31d0e4f1e7f2ea33ebe2f1328bc0128f139ae9f95f48bd83198c",
    ("sphinx/ref", "advise"):
        "2cd1d8053d5a7d276a9303bb0a2e26b6853f4f268fb777ef807a63db3ba1d062",
    ("sphinx/ref", "analyze"):
        "997e371b1292be186888961f11a90244df3c0541783ce0e88f6cbce3bc5a99a7",
    ("sphinx/ref", "transform"):
        "4a62a7ee3dd2d56f4d532df541377788e1bb2d9b8ed1da533b2f2e009888fefa",
    ("sphinx/train", "advise"):
        "2cd1d8053d5a7d276a9303bb0a2e26b6853f4f268fb777ef807a63db3ba1d062",
    ("sphinx/train", "analyze"):
        "997e371b1292be186888961f11a90244df3c0541783ce0e88f6cbce3bc5a99a7",
    ("sphinx/train", "transform"):
        "cb31391a1f687eea9d2745d9f42b61892af16416434720eaff5cdd952ae765c3",
    ("ssearch/ref", "advise"):
        "84e227d0d81b91f93f67d20b3ea91945403527c8f56d801d7854cb84eeeda94c",
    ("ssearch/ref", "analyze"):
        "5df550b2f8541cd727827fe1b6e7b51e0513b3430784c85046a7edb4c70bd690",
    ("ssearch/ref", "transform"):
        "753759fe2c51ab08878f1fc68a93bf6273075069c7d0fd560ea3e07bab7da504",
    ("ssearch/train", "advise"):
        "84e227d0d81b91f93f67d20b3ea91945403527c8f56d801d7854cb84eeeda94c",
    ("ssearch/train", "analyze"):
        "5df550b2f8541cd727827fe1b6e7b51e0513b3430784c85046a7edb4c70bd690",
    ("ssearch/train", "transform"):
        "0c283aeef837a373da0bcc4a5dc4ecfdece133855f24277cb74704e18de308a3",
}


@pytest.mark.slow
@pytest.mark.parametrize("program, op", sorted(PAYLOAD_DIGESTS))
def test_payload_and_diagnostics_pinned(program, op):
    reply = Session().execute(CompileRequest(op=op,
                                             sources=_sources(program)))
    assert reply.ok
    assert _digest(reply) == PAYLOAD_DIGESTS[(program, op)]


def test_every_program_and_op_is_pinned():
    assert set(PAYLOAD_DIGESTS) == {
        (name, op) for name in PROGRAMS
        for op in ("analyze", "advise", "transform")}


#: perfbench ``optimize``'s fixed search effort, seed 1
SEEDED_SA = SearchOptions(engine="sa", budget_s=0, seed=1, sa_batch=2,
                          sa_iters=2, sa_restarts=0)

#: (program, mode) -> (sources, options) of each pinned compare
COMPARES = {
    **{(f"{name}/train", "greedy"):
       (get_workload(name).sources("train"), CompileOptions())
       for name in ("181.mcf", "179.art", "moldyn")},
    **{(f"{name}/train", "seeded-sa"):
       (get_workload(name).sources("train"),
        CompileOptions(search=SEEDED_SA, cache=False))
       for name in ("181.mcf", "179.art", "moldyn")},
    ("demo", "no-verify"): ([("demo.c", DEMO)],
                            CompileOptions(verify=False)),
}

COMPARE_DIGESTS = {
    ("179.art/train", "greedy"):
        "2b642a214901a4648e8897c8fb23abf4ce22a69cca6565ef43a37edef9b19516",
    ("179.art/train", "seeded-sa"):
        "a1f611ff7ae4c54497f833fef6e7451cbb2ad7a9a948f78e5c4761a62625bd84",
    ("181.mcf/train", "greedy"):
        "21de856b46c7d416335c59678754e964a5924f33701f149986dee037c984e81e",
    ("181.mcf/train", "seeded-sa"):
        "47be500c445486162cbd6e0c6cdb42b4d47cbdd85a14f3c4836361ecb7902e6b",
    ("demo", "no-verify"):
        "1573affe4e9cbbf346a893c447e423908123438e116b32a2b8ab4751121b3bce",
    ("moldyn/train", "greedy"):
        "e7e518fe904c1f72cae82ee3ba3d37e21b9e3704ece01880183d7bc6ea64650a",
    ("moldyn/train", "seeded-sa"):
        "bf3c91e7f2d27f28ad151fc76515a0831d29f15c86f6cc5e77320612e9acdc4d",
}


@pytest.mark.slow
@pytest.mark.parametrize("program, mode", sorted(COMPARE_DIGESTS))
def test_compare_payload_and_diagnostics_pinned(program, mode):
    sources, options = COMPARES[(program, mode)]
    reply = Session().execute(CompileRequest(op="compare",
                                             sources=sources,
                                             options=options))
    assert reply.ok
    assert _digest(reply) == COMPARE_DIGESTS[(program, mode)]
