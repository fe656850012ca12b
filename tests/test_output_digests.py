"""Every output byte of the table, indicator and verify commands, pinned.

SHA-256 of stdout for ``char-table``, ``real-table``, ``fs``, ``classes``
and ``fixed-points`` at q in {3, 5, 7, 11, 13} and of ``verify`` at q in
{7, 11, 13}, each in text, json, csv and latex.  The text, csv and latex
table digests were written before table values moved to their natural
conductors, and the ``classes`` and ``fixed-points`` ones before the
fixed-point table became columns; how a value is stored must not move a
byte of those formats.  The json digests are of schema 2, one compact
line of ``json.dumps``; the ``real-table`` ones at q = 3, 7 and 11 write
the rational sums of conjugates (2Re xi_1 and 2Re eta_1 at c, d, zc and
zd) at conductor 1.  ``fixed-points 17`` and ``fixed-points 13
--max-enum 11`` pin the text, csv and latex tables without an oracle
column; their digests were written before those tables were rendered
from per-width tables of padded cells.  ``fixed-points 53`` and ``211``,
past the enumeration bound in all four formats, were written before the
subgroup keys of one closed-form signature shared a column, and the
renderers read each distinct column once.  ``classes 1009`` was written
before the class list was streamed from int rows; its text, csv and latex
digests are those of perfbench's ``closed`` workload.

Every digest of ``perfbench/reference.json`` (the text, csv and latex
outputs of the benchmark's commands) is checked the same way, so that an
output change fails here before the benchmark reports it.
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sl2q.cli import main

DIGESTS = {
    "char-table 3 text":
        "61ba342372aad127675515baa853d69b9b2488a7fb432969f4cff464b7a47577",
    "char-table 3 json":
        "976b5634293635f5964ad07ee370d1ad6d742394ee2ac220d818a050c8bba353",
    "char-table 3 csv":
        "ce5220b0a755a677ebe1db998f3ea17b2c42a7137f90531612b36f56f11c6588",
    "char-table 3 latex":
        "2fe3c480ef66cd728bf4eced46853cac4e7c7793857e8e8150d21bbc21aff89a",
    "char-table 5 text":
        "8862324f48481c1a9a9e8d552fe24764e581dba27eaf3a9cf5d0fc6a4926cf10",
    "char-table 5 json":
        "7569c63acc83e052550f82920c04ada4c95223819aa72097aba422467377d05a",
    "char-table 5 csv":
        "b255b34855f9fa867a3d47c78792c5c4cd54cbdfc6c7bb3f6cc4ef1ee0d8b871",
    "char-table 5 latex":
        "bc60be100bdd71df926d1310f7f11c0f7e29cfe967acc39ad636d42e7ccadcda",
    "char-table 7 text":
        "75d3fa89ef619080453f97ed9881e043204177b691524f44d68e598e3a84ddbe",
    "char-table 7 json":
        "1f9d29b408af6087f3d8e23ed11255fd417bb7c50c03ddd0dd52e7ede0e3cfb1",
    "char-table 7 csv":
        "054ab544557a91ccc91c5ca303a5368cab4d3ba3c41ce290e4283f2098a70c32",
    "char-table 7 latex":
        "e8a2d189158567295ee3e92ab8243363de7866489863fe1a047cf7b74517b90f",
    "char-table 11 text":
        "ff0237a1f5659e7dbad10038ea0893b88759d984043a38c1af1160af40560a56",
    "char-table 11 json":
        "132e48653df04b9df05ad0044247c52bb721f52c271d7a6ccf9674b704e0c166",
    "char-table 11 csv":
        "035be88e6ed3d71569ee385825feaad7c69810902c23fd87f3f794bfe6c3c972",
    "char-table 11 latex":
        "9f3e8069abf94ed5eaa74e031b67b464ee66963091453f6cf7c89633194a6fa2",
    "char-table 13 text":
        "5635233d2a998bb08ec6ee799ef4cfc638aa3cc0bfcced68a7644a91a1ad52c8",
    "char-table 13 json":
        "e2dfc84b8bd96c201e94adb8011def49fcb46a345dc4f8fc7ebdcab3beb078ad",
    "char-table 13 csv":
        "ece576fb4fe2f01515d42324bf924a74538ea9fdbf46e4a1839da248fd3d3f1c",
    "char-table 13 latex":
        "1e56a0ea6f04cb58726159e36b29dd942f869ee514492664d2110ab2a5e337b2",
    "real-table 3 text":
        "c23db6e514b306d362e46e60a5529ca0a652c6e2a7733068a3e903391f5224f6",
    "real-table 3 json":
        "3e50afeefb3e3e6b7e058577926ed85c71c5f0e8173d742b2db1fc69b7c09f9b",
    "real-table 3 csv":
        "6999ce674ae1380478c33649b9aad1cd6f3ccc6e089d6872b593b5444cd50c92",
    "real-table 3 latex":
        "8289b1f3ecce39fbbf04a9a3defcc3a8810134a26e2361aeab28469222c10f76",
    "real-table 5 text":
        "91698edb06dc2a2f89348259c851d7d4177477bc54c6536dbdd8ea2000cc14ca",
    "real-table 5 json":
        "c2e63307b1682b80ab3c4db904671b1ab904b6de0c60829cb48ccf5534b2924a",
    "real-table 5 csv":
        "2ecd2de1ff916a59686086bf6d6389ee70bf21c10e4323638e2818d42d2948de",
    "real-table 5 latex":
        "d3c9211e6cb322ecd9685ab5e6162fa73bc2687da3dfd399501745fa33aee54b",
    "real-table 7 text":
        "a08334935190f8a8547f4ca7915e1e2acbe80bd0a57564c41876f03697af1399",
    "real-table 7 json":
        "c9cd8f1b8d5f5d339c949a0ee14458b4ff35c68615ef4bb07cf4ca110afcade2",
    "real-table 7 csv":
        "05d8319a96557758f37126e04e14e869418d8e67511bb6e6255b1c4a73bf89c8",
    "real-table 7 latex":
        "ea32a093d76afa390586de8cf6ef03bcbe5a67ac0dc62193f9906d1ce93b0dc2",
    "real-table 11 text":
        "0a015fe62475af811cec85cb61693eeab244f1b757cc6da727bf02fb020ab2f5",
    "real-table 11 json":
        "cf7b7dc27bd0ed212d9447733a9f19fa57d1c4394bc2df774c0269fb8e749746",
    "real-table 11 csv":
        "a43cf2dea2e85a3721e4f144f44715a5705880a628708c6191d34f31eedc2aac",
    "real-table 11 latex":
        "bddaa864efa465e5415bf5e7632a9b7ab80b2058c5306d34e7950539e2b58ee3",
    "real-table 13 text":
        "55567a28d075e9eaafc5a86b68ef0af0b64af84ab391b27b253c86ccb6d85c17",
    "real-table 13 json":
        "071dd85dab7dcb82cb6644e4cd7a5b4c332859f37f7480365912d6f9bfb66187",
    "real-table 13 csv":
        "c27c7e575c149326ffe7a36b375600777201e61ce5b6d2e866127e51dd138bab",
    "real-table 13 latex":
        "7a968aacecf0c2befa138df292947cbdaaf4973eec121f2952dbc027411a2678",
    "fs 3 text":
        "929f766ab4ec2ace337d9000bb204befac900a3df3b230646ff4675f8067fdf4",
    "fs 3 json":
        "cd5587e3d3a1d7837ad23b66c41eaa0791848296d283d56d0b65ec9061c8d7fa",
    "fs 3 csv":
        "1edee2a74e92153314cbc840b4f48442c31399057807bee024def139e2cfd699",
    "fs 3 latex":
        "6ae67e3635331410569b5d12946af0c6cd6f9324aa1a8bf1033e3f03e9b8bffd",
    "fs 5 text":
        "17801e818f7f0db1bde3b51ee316b873c2bdf3edc74e94580c170fc7a7ad18d1",
    "fs 5 json":
        "08159828d7617b67e001ace30c3dd7db09010e1b7fb3cf7826e76cfef2116b86",
    "fs 5 csv":
        "9122a46e017d6e9cd4b0227ab10dfaca7174b387ab3a70c118d6fb29a72bccf6",
    "fs 5 latex":
        "00df9e07ac1e3ca7081552eef01d5297fe9431dc05e68547607ac523c19c928e",
    "fs 7 text":
        "5bbdcd4f98ace7167e7ed8079012a0ac266619b2f57730fef84d8e057f4eb0c3",
    "fs 7 json":
        "718603a4ff31403f07c2917c64891ba276204c87ad0fd0e90c39a8c7330c02fe",
    "fs 7 csv":
        "adc0f764b4d47ec009b0526d07a2f21695610b14eba1fc5d697ad53cc0381dc7",
    "fs 7 latex":
        "afc6087d8852a4c205ea340625770b0175b7f9b8d187c04588ba89d0dda1b0f4",
    "fs 11 text":
        "b18e4ad2a0633b7dc652d102d91e8e19250d530460e963bbd2451e7ffb6e443f",
    "fs 11 json":
        "08b7743b4062ad73d5dfa23bd319228598c2056ac5084376a58e548b53172f8e",
    "fs 11 csv":
        "fce86280fdedb0ef19d86569e2b520d3ae89d3a247c106649048cc4706209909",
    "fs 11 latex":
        "532aef7f2a2eeea524aec9e3cf13cc94c8facf25ee0aa9df56e98fa728db138c",
    "fs 13 text":
        "edc08ef8a82fdb047fbdb7d9575bbb70fe185f679115e39241e7f170808053c7",
    "fs 13 json":
        "a16adb49f639982e71918274e83bec988ef5e4825196cdae2b769d9209793d24",
    "fs 13 csv":
        "0b32ce4a7f577f1e1b5108d96420fd832841adcbbe9a409f17e6c9cfe7de8fce",
    "fs 13 latex":
        "6aa2a32a1aed19e697062e97790f9bfcc01f16958f9999f506c59e5675080f1c",
    "verify 7 text":
        "444bab218860be9e693a89e5563e43e5d704514f2d985ce51d158cdf14aabba0",
    "verify 7 json":
        "322cac1d394df60a0be9f25a8d12b4b4af949f447186146b88b68f3a10d18f32",
    "verify 7 csv":
        "1d327ec006ceea8461d5f49bc76b9eed0e87988582ee30b31f8c207852c1104f",
    "verify 7 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "verify 11 text":
        "8c3fb2feea66a8831dc582bb997ffb8fa5fa3e787fcc990a72e93a5b6c3182ce",
    "verify 11 json":
        "2aa806575aaadb7ff9b1d80b73e6ba7785d8a2016bd5b02c7eb402e55540ea23",
    "verify 11 csv":
        "42c76e7ef8c645bbd4765caf6f124ca79711729e3b020bea64bc2c15475b57a4",
    "verify 11 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "verify 13 text":
        "f046813735df741079eb50f8d2ee7a4769f1943d321db31bf6d6fac6e577a2e9",
    "verify 13 json":
        "540251672fee081a738f2a12b5151f9e8e3aa8d690855b764a9524270f46a403",
    "verify 13 csv":
        "741cc359408306800ab7d039c2be08740535b69cedc2dbc8d0fe0607218655ab",
    "verify 13 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "classes 3 text":
        "d14af6c31cb92d0b80e2b7c75ecd5d98d61b9fe606af40f4c5b560acec739d5d",
    "classes 3 json":
        "d8c95e3e05bbf0b19b18baf81d0adbd31002b8a24722addf35661813148375a4",
    "classes 3 csv":
        "c0d0e730adb5f4ababfc0c9c05b5fcf357a42dcf3a60373532a537911c6c57f3",
    "classes 3 latex":
        "52422f54bd975daf7b0fc24372aa1f62ecea976605fbd16a28cf267b56c85db0",
    "classes 5 text":
        "388827ba8b75e25c778afe42f9c55cc21b8f78227720383ff1aab799ad6716ce",
    "classes 5 json":
        "e1f928817c3b804436e9b2b4d8a073f469c462f5e8ac7f4255eea9ea03a7fb46",
    "classes 5 csv":
        "60fa63349f1c285dd520c600fc054c8c5d8b65aa7b4b2858f532278cad157859",
    "classes 5 latex":
        "ff6cd2444bc32c6e02ce1b7d95a4cba427b1f76888f547305e8ab1a9cae663c0",
    "classes 7 text":
        "a63f4db9c12d7c8e7f817994bd4dbcde346db968ae039847e843c55a531566bb",
    "classes 7 json":
        "a0932f5cdc2971781453e5b1f60d106fcfe48f70c93701f4aaae53a761d9a609",
    "classes 7 csv":
        "11f00834752d49b97b52686e43844cd24889bb4d1fd1c0ee5a930dded561db6d",
    "classes 7 latex":
        "0324809891f8de21c509143611e44aa3c534f533093b79ff7af0b4fcaed44af3",
    "classes 11 text":
        "faee70898fc50c942d5f46e92c40509ef267cebe636f8849f9d2cf672c0cf509",
    "classes 11 json":
        "a06da5974b5fee35f5399d8540ce804f348e1cc6e924461018c6006c20fa1194",
    "classes 11 csv":
        "ee2c17c9f730a35d87ddbc01b976eba8ffd047c7a2b38e210efbe4b2fd489469",
    "classes 11 latex":
        "b0f1b94c556c50773f7f3011c272aa4007fba256165d19eb9f5cfe4cd6580e66",
    "classes 13 text":
        "d2f568654a251e212dc4cf8363037975ac2956db79b0b3f32a706b1b348168be",
    "classes 13 json":
        "1bea2034fda5226026e5ab2b2e089a374e238e3d1e464a84f605719a5cce3651",
    "classes 13 csv":
        "781048f9d816ce1635b695085e90b00c9e00b679c0ac0d717c27fda935e66b6c",
    "classes 13 latex":
        "1f84e333e955ca858432d8371619dbc964d3efb711add8e8af79dc4218b34683",
    "classes 1009 text":
        "333c73d1022317080196b0b5cf802540d8097b752badbc436fbd687440a504ad",
    "classes 1009 json":
        "5b069542721d6e36837877fdd15e7fe3a21cd017bd55563a22946a0e59faf817",
    "classes 1009 csv":
        "584ecb10979f449279ca03e8cb5afe7f6c14ad1787c41fd9fed9720c3fa132bc",
    "classes 1009 latex":
        "7c8e8fd7d4a2ca0ba306f3f618740edcf30cf7de7741e3f9e6aeddba737a48ce",
    "fixed-points 3 text":
        "1c226c262597fc6c3f7e718dbdf7ae9e7bb58d04cc226fe62bd3df705944c7e6",
    "fixed-points 3 json":
        "427e31af8a82adfd382866cc094143e1815af28441b1d507350291a7f8225cf8",
    "fixed-points 3 csv":
        "2afab3197e98fe84d88f704c00574609b789b92fbbf58439f7f8b9c824ab9508",
    "fixed-points 3 latex":
        "a9a55fc082468572ab630f52642e50c4ccc444d784c6e49fad13602037fa4551",
    "fixed-points 5 text":
        "dae1298232399eb0f3f3c34b58a97324066775087b8efbbdd2b3205c67a5005e",
    "fixed-points 5 json":
        "5f0f7b462b92ebecb52fe3cf58a5c323884bb7c3bb5e8efb8d5031b7048f433d",
    "fixed-points 5 csv":
        "12976bdce74f818e560ef553336f2fe68b926a55211bebe2edba77a0c27fc5c0",
    "fixed-points 5 latex":
        "17e451c67a554fd99b6ccade76330a4216aaec2840edacab8f82ce7d4e85da4c",
    "fixed-points 7 text":
        "900f5a4acbca80191896c57fa899d1a450b0ce33cbbbff636ee09152060d08f4",
    "fixed-points 7 json":
        "546ed197eb601b034197cc4816ef0fb02afacc4111b1788ad52a6c0265e9ffae",
    "fixed-points 7 csv":
        "f058bf82492b1920439957229b80234d3b3177de7b9e334605d07f52a9a50472",
    "fixed-points 7 latex":
        "16406c7f44bdbc21835b7d94de266342fea7b0d0aa29b58f4e944557b98fbbab",
    "fixed-points 11 text":
        "4a956328c45727a9fcb053828fa8caae2f02c76d62584943344b6388ca05fc36",
    "fixed-points 11 json":
        "7896830c9c48279b7ac1c8ca4b280ba473372680010b4a63aa75b59bd3e97411",
    "fixed-points 11 csv":
        "3dcd3b9d346c6a0ce75852d386bea163482b75f0ba042d8946599e60cf3d78c4",
    "fixed-points 11 latex":
        "08281c9ae83f48f97f5ed64df246d8562917e8b482c5fff78c7ce5cb8bed3791",
    "fixed-points 13 text":
        "10c70d517ce48bc5faf4f2147bd77fef23b3978750a2edbf3acb375fa72ea3ab",
    "fixed-points 13 json":
        "15ab372260d231a4a9688fe2ece3fe6b3410ebf8b947a3d5d2194fd49264eecc",
    "fixed-points 13 csv":
        "266d21c1ec5c0a8d9a5198a22da48f6cbe114e718b7029b406a09f8788beefa4",
    "fixed-points 13 latex":
        "db3ade6a4d51a18a235e70024cc537ae822db352b8fffb5b4b18ec0c8701bbc5",
    "fixed-points 17 text":
        "3f193af814b35b9a583813ff68d763ecd2efc520b8de165bf4a274a689a2221f",
    "fixed-points 17 csv":
        "69c63a03aa0d645839ea3f17f36121125639a6d3bbce3bbe5c9552a5ab8f0ce5",
    "fixed-points 17 latex":
        "dad317c3a52d8f1ebceb13e59365b236e490b5acb6ae951c98f8d83895224bf5",
    "fixed-points 13 --max-enum 11 text":
        "3a41ded609f12177726536cf7fa85a82ed2c111607bda845421f31bcd8c6bf4a",
    "fixed-points 13 --max-enum 11 csv":
        "59aa8c1f5e350989e1f14b77c6cd1c3c9f893e84932a3fe5568291ba934f7bb3",
    "fixed-points 13 --max-enum 11 latex":
        "db3ade6a4d51a18a235e70024cc537ae822db352b8fffb5b4b18ec0c8701bbc5",
    "fixed-points 53 text":
        "7c72297a6a32652a3564379adda55d9da6b6808d43494938ed5b950aba20574c",
    "fixed-points 53 json":
        "5209fb4ede47f419bba99eff0fad4cec9dc74da7b601297917fee03d95cc624c",
    "fixed-points 53 csv":
        "af56e309e991449d696f08e08c193cb1cc25dfec984b16b049a05332ac9dc48a",
    "fixed-points 53 latex":
        "d5eda74b6b65e8d7db318f903ad228472ed04cf64c4d28699ef925a4c5dec2c7",
    "fixed-points 211 text":
        "bafec892b9cbc8e0925b2ac4bceb98d9d9be6710ba6098f071945d9c37a5971c",
    "fixed-points 211 json":
        "59fdff12dab02009186bfb571093d5ae7c25e369a0295dcd0430ce7acd058627",
    "fixed-points 211 csv":
        "0db1bf050a8f6f7feab389539ebe5abe5d08316cc02e9994f78ac37d1358c0b9",
    "fixed-points 211 latex":
        "e90913a45801eff1ab1e55648d5f7475ef6e7deae97be458e7d408f357372ff6",
}


# the benchmark's reference digests, keyed like DIGESTS
REFERENCE = json.loads((Path(__file__).parents[1] / "perfbench"
                        / "reference.json").read_text())


def digest(case: str) -> str:
    """SHA-256 of the stdout of ``case``, a command, q and format."""
    *argv, fmt = case.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--format", fmt])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_stdout_digest(case):
    assert digest(case) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_benchmark_reference_digest(case):
    assert digest(case) == REFERENCE[case]
