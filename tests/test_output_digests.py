"""Every output byte of the table, indicator and verify commands, pinned.

SHA-256 of stdout for ``char-table``, ``real-table``, ``fs``, ``classes``
and ``fixed-points`` at q in {3, 5, 7, 11, 13} and of ``verify`` at q in
{7, 11, 13}, each in text, json, csv and latex.  The table digests were
written before table values moved to their natural conductors, and the
``classes`` and ``fixed-points`` digests before the fixed-point table
became columns; how a value is stored must not move a byte of any format.
"""
import contextlib
import hashlib
import io

import pytest

from sl2q.cli import main

DIGESTS = {
    "char-table 3 text":
        "61ba342372aad127675515baa853d69b9b2488a7fb432969f4cff464b7a47577",
    "char-table 3 json":
        "9ec50d3f9dc46fd57d6b3bbb2a2970b78ced81e31c231f2126cb946d3a4b72cb",
    "char-table 3 csv":
        "ce5220b0a755a677ebe1db998f3ea17b2c42a7137f90531612b36f56f11c6588",
    "char-table 3 latex":
        "2fe3c480ef66cd728bf4eced46853cac4e7c7793857e8e8150d21bbc21aff89a",
    "char-table 5 text":
        "8862324f48481c1a9a9e8d552fe24764e581dba27eaf3a9cf5d0fc6a4926cf10",
    "char-table 5 json":
        "a3477b61ad297824aa30b0db68a72ea300d3658cf0692a0e8c1bf5f7e3e904f9",
    "char-table 5 csv":
        "b255b34855f9fa867a3d47c78792c5c4cd54cbdfc6c7bb3f6cc4ef1ee0d8b871",
    "char-table 5 latex":
        "bc60be100bdd71df926d1310f7f11c0f7e29cfe967acc39ad636d42e7ccadcda",
    "char-table 7 text":
        "75d3fa89ef619080453f97ed9881e043204177b691524f44d68e598e3a84ddbe",
    "char-table 7 json":
        "945bedff920565f8e0b6d14fa2516ec7bc214dbdf5978bc1858bf9809fb7d7c7",
    "char-table 7 csv":
        "054ab544557a91ccc91c5ca303a5368cab4d3ba3c41ce290e4283f2098a70c32",
    "char-table 7 latex":
        "e8a2d189158567295ee3e92ab8243363de7866489863fe1a047cf7b74517b90f",
    "char-table 11 text":
        "ff0237a1f5659e7dbad10038ea0893b88759d984043a38c1af1160af40560a56",
    "char-table 11 json":
        "0c67202a682de7129780deaa2567b96dbc10ee9830b42cebba24a8d7f943c17e",
    "char-table 11 csv":
        "035be88e6ed3d71569ee385825feaad7c69810902c23fd87f3f794bfe6c3c972",
    "char-table 11 latex":
        "9f3e8069abf94ed5eaa74e031b67b464ee66963091453f6cf7c89633194a6fa2",
    "char-table 13 text":
        "5635233d2a998bb08ec6ee799ef4cfc638aa3cc0bfcced68a7644a91a1ad52c8",
    "char-table 13 json":
        "bd5d70788e9a639493aa807d0e6072936279d1404fa7cd64f8609d793e9d5abf",
    "char-table 13 csv":
        "ece576fb4fe2f01515d42324bf924a74538ea9fdbf46e4a1839da248fd3d3f1c",
    "char-table 13 latex":
        "1e56a0ea6f04cb58726159e36b29dd942f869ee514492664d2110ab2a5e337b2",
    "real-table 3 text":
        "c23db6e514b306d362e46e60a5529ca0a652c6e2a7733068a3e903391f5224f6",
    "real-table 3 json":
        "a9ba37a07ee56075217d100510876fb7651ed6d0d659c963a761105b277733ce",
    "real-table 3 csv":
        "6999ce674ae1380478c33649b9aad1cd6f3ccc6e089d6872b593b5444cd50c92",
    "real-table 3 latex":
        "8289b1f3ecce39fbbf04a9a3defcc3a8810134a26e2361aeab28469222c10f76",
    "real-table 5 text":
        "91698edb06dc2a2f89348259c851d7d4177477bc54c6536dbdd8ea2000cc14ca",
    "real-table 5 json":
        "175d74923846e0f279e5ba817c39a241a45cb841c428b5707e40b0c7ef8a58ff",
    "real-table 5 csv":
        "2ecd2de1ff916a59686086bf6d6389ee70bf21c10e4323638e2818d42d2948de",
    "real-table 5 latex":
        "d3c9211e6cb322ecd9685ab5e6162fa73bc2687da3dfd399501745fa33aee54b",
    "real-table 7 text":
        "a08334935190f8a8547f4ca7915e1e2acbe80bd0a57564c41876f03697af1399",
    "real-table 7 json":
        "4d2f4e8e793529e28675a9a00206875127a66ba48c2ad5374c6b11542a1c4c7c",
    "real-table 7 csv":
        "05d8319a96557758f37126e04e14e869418d8e67511bb6e6255b1c4a73bf89c8",
    "real-table 7 latex":
        "ea32a093d76afa390586de8cf6ef03bcbe5a67ac0dc62193f9906d1ce93b0dc2",
    "real-table 11 text":
        "0a015fe62475af811cec85cb61693eeab244f1b757cc6da727bf02fb020ab2f5",
    "real-table 11 json":
        "b4f39c4d848416a31e37a472863c1e96644fdef8189ff198068b192b86b5653e",
    "real-table 11 csv":
        "a43cf2dea2e85a3721e4f144f44715a5705880a628708c6191d34f31eedc2aac",
    "real-table 11 latex":
        "bddaa864efa465e5415bf5e7632a9b7ab80b2058c5306d34e7950539e2b58ee3",
    "real-table 13 text":
        "55567a28d075e9eaafc5a86b68ef0af0b64af84ab391b27b253c86ccb6d85c17",
    "real-table 13 json":
        "c0b3ea6e5c07405325305c601eff919dd75ae78c1fd497416d3c029ba709e303",
    "real-table 13 csv":
        "c27c7e575c149326ffe7a36b375600777201e61ce5b6d2e866127e51dd138bab",
    "real-table 13 latex":
        "7a968aacecf0c2befa138df292947cbdaaf4973eec121f2952dbc027411a2678",
    "fs 3 text":
        "929f766ab4ec2ace337d9000bb204befac900a3df3b230646ff4675f8067fdf4",
    "fs 3 json":
        "be672a42860ad79df93af44487f4912cda422192bfcddb2148d93491e2a64320",
    "fs 3 csv":
        "1edee2a74e92153314cbc840b4f48442c31399057807bee024def139e2cfd699",
    "fs 3 latex":
        "6ae67e3635331410569b5d12946af0c6cd6f9324aa1a8bf1033e3f03e9b8bffd",
    "fs 5 text":
        "17801e818f7f0db1bde3b51ee316b873c2bdf3edc74e94580c170fc7a7ad18d1",
    "fs 5 json":
        "6cda96d552ff76107773e0074b7bb4df2923678fe07a4387ecae5889f4111ade",
    "fs 5 csv":
        "9122a46e017d6e9cd4b0227ab10dfaca7174b387ab3a70c118d6fb29a72bccf6",
    "fs 5 latex":
        "00df9e07ac1e3ca7081552eef01d5297fe9431dc05e68547607ac523c19c928e",
    "fs 7 text":
        "5bbdcd4f98ace7167e7ed8079012a0ac266619b2f57730fef84d8e057f4eb0c3",
    "fs 7 json":
        "4bb161525df748c6982322b9afc3becc19400ef62eefd44f07b3cb7e29851fc8",
    "fs 7 csv":
        "adc0f764b4d47ec009b0526d07a2f21695610b14eba1fc5d697ad53cc0381dc7",
    "fs 7 latex":
        "afc6087d8852a4c205ea340625770b0175b7f9b8d187c04588ba89d0dda1b0f4",
    "fs 11 text":
        "b18e4ad2a0633b7dc652d102d91e8e19250d530460e963bbd2451e7ffb6e443f",
    "fs 11 json":
        "2203790216657d5f8f3e5442ff237b0453fcc709411d0d1a4b54506add7be87c",
    "fs 11 csv":
        "fce86280fdedb0ef19d86569e2b520d3ae89d3a247c106649048cc4706209909",
    "fs 11 latex":
        "532aef7f2a2eeea524aec9e3cf13cc94c8facf25ee0aa9df56e98fa728db138c",
    "fs 13 text":
        "edc08ef8a82fdb047fbdb7d9575bbb70fe185f679115e39241e7f170808053c7",
    "fs 13 json":
        "d80c29762bf40f3bcb7b46686374f6dab59371265756357c4698da2f93e2643c",
    "fs 13 csv":
        "0b32ce4a7f577f1e1b5108d96420fd832841adcbbe9a409f17e6c9cfe7de8fce",
    "fs 13 latex":
        "6aa2a32a1aed19e697062e97790f9bfcc01f16958f9999f506c59e5675080f1c",
    "verify 7 text":
        "444bab218860be9e693a89e5563e43e5d704514f2d985ce51d158cdf14aabba0",
    "verify 7 json":
        "3cfa8a64013bc53fa0e38c084d562b52a620b0a489537ea31d83eeff1450eec3",
    "verify 7 csv":
        "1d327ec006ceea8461d5f49bc76b9eed0e87988582ee30b31f8c207852c1104f",
    "verify 7 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "verify 11 text":
        "8c3fb2feea66a8831dc582bb997ffb8fa5fa3e787fcc990a72e93a5b6c3182ce",
    "verify 11 json":
        "7f3fb4c46478f85cea75094e1ced1b6d869eb1a292f671ec26c0c9974113af2a",
    "verify 11 csv":
        "42c76e7ef8c645bbd4765caf6f124ca79711729e3b020bea64bc2c15475b57a4",
    "verify 11 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "verify 13 text":
        "f046813735df741079eb50f8d2ee7a4769f1943d321db31bf6d6fac6e577a2e9",
    "verify 13 json":
        "7d646d2f69aea5a95f9d83e6dcbe7ce1719f6405b2f3b5ba1c82cc9338122b65",
    "verify 13 csv":
        "741cc359408306800ab7d039c2be08740535b69cedc2dbc8d0fe0607218655ab",
    "verify 13 latex":
        "0335523d9e6ba734aa0fd2f6e5c446bede42a75c40359ed851e39e71f64c5851",
    "classes 3 text":
        "d14af6c31cb92d0b80e2b7c75ecd5d98d61b9fe606af40f4c5b560acec739d5d",
    "classes 3 json":
        "01ca56bc712b1ea94443efc33b380c4e72c9454d040d16b9656b52dfe0654ebb",
    "classes 3 csv":
        "c0d0e730adb5f4ababfc0c9c05b5fcf357a42dcf3a60373532a537911c6c57f3",
    "classes 3 latex":
        "52422f54bd975daf7b0fc24372aa1f62ecea976605fbd16a28cf267b56c85db0",
    "classes 5 text":
        "388827ba8b75e25c778afe42f9c55cc21b8f78227720383ff1aab799ad6716ce",
    "classes 5 json":
        "7318bc8034d800647ed81be480bc98f7855e7dedcde97a45a712e5c4f2122f4f",
    "classes 5 csv":
        "60fa63349f1c285dd520c600fc054c8c5d8b65aa7b4b2858f532278cad157859",
    "classes 5 latex":
        "ff6cd2444bc32c6e02ce1b7d95a4cba427b1f76888f547305e8ab1a9cae663c0",
    "classes 7 text":
        "a63f4db9c12d7c8e7f817994bd4dbcde346db968ae039847e843c55a531566bb",
    "classes 7 json":
        "86eba0fe7c5388982d7ae5fa1546c2579620a18f254a23a52639fa8a20022f88",
    "classes 7 csv":
        "11f00834752d49b97b52686e43844cd24889bb4d1fd1c0ee5a930dded561db6d",
    "classes 7 latex":
        "0324809891f8de21c509143611e44aa3c534f533093b79ff7af0b4fcaed44af3",
    "classes 11 text":
        "faee70898fc50c942d5f46e92c40509ef267cebe636f8849f9d2cf672c0cf509",
    "classes 11 json":
        "5442e01856e6a1bddede0086026c45d6970d1710e371474a8d08975baed88d44",
    "classes 11 csv":
        "ee2c17c9f730a35d87ddbc01b976eba8ffd047c7a2b38e210efbe4b2fd489469",
    "classes 11 latex":
        "b0f1b94c556c50773f7f3011c272aa4007fba256165d19eb9f5cfe4cd6580e66",
    "classes 13 text":
        "d2f568654a251e212dc4cf8363037975ac2956db79b0b3f32a706b1b348168be",
    "classes 13 json":
        "2c5cce0b30817569e7906c61b67fb1b8c50924289ed0c134b2b70f2b75162a15",
    "classes 13 csv":
        "781048f9d816ce1635b695085e90b00c9e00b679c0ac0d717c27fda935e66b6c",
    "classes 13 latex":
        "1f84e333e955ca858432d8371619dbc964d3efb711add8e8af79dc4218b34683",
    "fixed-points 3 text":
        "1c226c262597fc6c3f7e718dbdf7ae9e7bb58d04cc226fe62bd3df705944c7e6",
    "fixed-points 3 json":
        "afa01178f6cfa9dd3c1773ddb6a9c066a36f1c7f64dc8cdfa486b1282509c161",
    "fixed-points 3 csv":
        "2afab3197e98fe84d88f704c00574609b789b92fbbf58439f7f8b9c824ab9508",
    "fixed-points 3 latex":
        "a9a55fc082468572ab630f52642e50c4ccc444d784c6e49fad13602037fa4551",
    "fixed-points 5 text":
        "dae1298232399eb0f3f3c34b58a97324066775087b8efbbdd2b3205c67a5005e",
    "fixed-points 5 json":
        "86de6700c428238c258bfcd4e8cf73c3d301deec65887d355c265179226bb243",
    "fixed-points 5 csv":
        "12976bdce74f818e560ef553336f2fe68b926a55211bebe2edba77a0c27fc5c0",
    "fixed-points 5 latex":
        "17e451c67a554fd99b6ccade76330a4216aaec2840edacab8f82ce7d4e85da4c",
    "fixed-points 7 text":
        "900f5a4acbca80191896c57fa899d1a450b0ce33cbbbff636ee09152060d08f4",
    "fixed-points 7 json":
        "949dea9e7797ea3983b90977295da1e06de0a0894e43973deca82a23ca493171",
    "fixed-points 7 csv":
        "f058bf82492b1920439957229b80234d3b3177de7b9e334605d07f52a9a50472",
    "fixed-points 7 latex":
        "16406c7f44bdbc21835b7d94de266342fea7b0d0aa29b58f4e944557b98fbbab",
    "fixed-points 11 text":
        "4a956328c45727a9fcb053828fa8caae2f02c76d62584943344b6388ca05fc36",
    "fixed-points 11 json":
        "7ab79d65dfd413f13b2c2a5fc247678992bd635395f6248ad07a51fb715eb980",
    "fixed-points 11 csv":
        "3dcd3b9d346c6a0ce75852d386bea163482b75f0ba042d8946599e60cf3d78c4",
    "fixed-points 11 latex":
        "08281c9ae83f48f97f5ed64df246d8562917e8b482c5fff78c7ce5cb8bed3791",
    "fixed-points 13 text":
        "10c70d517ce48bc5faf4f2147bd77fef23b3978750a2edbf3acb375fa72ea3ab",
    "fixed-points 13 json":
        "a8f8e96f02c26b23e43c65b4a7538ec49132c143e0b9d580c1ffee0cf7247c87",
    "fixed-points 13 csv":
        "266d21c1ec5c0a8d9a5198a22da48f6cbe114e718b7029b406a09f8788beefa4",
    "fixed-points 13 latex":
        "db3ade6a4d51a18a235e70024cc537ae822db352b8fffb5b4b18ec0c8701bbc5",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_stdout_digest(case):
    cmd, q, fmt = case.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([cmd, q, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS[case]
