"""Tier-1 byte-identity guard for the stdout of every command.

Each entry maps (command, input, algorithm, k, format) to the exit code
and the SHA-256 of stdout as the command printed it before the candidate
table became columnar: every algorithm at k = 2..4 for ``fit``, ``sk``
and ``malvestuto`` for ``report``, text and JSON, on ``lizards`` and on a
``synth --d 10 --k 3 --n 5000 --seed 3`` counts file. A change to any
byte of these outputs must be deliberate and comes with new hashes.
The two ``synth6`` entries, ``fit --k 3`` in JSON by ``sk`` and by
``malvestuto`` on the exact counts of ``synth --d 6 --k 3 --seed 9
--cards 2,3,2,2,3,2 --strength 0``, were recorded before the candidate
table kept its rows as ids: 24 of their 60 candidate rows have w < 0
(and 2 of the ``sk`` trace's steps), which no other entry prints.
The three ``fit lizards exhaustive {2,3,4} json`` entries were
re-recorded when ``exhaustive`` began to score from the marginals its
candidate table prefetches, as the other fits do: its w, ω and score
then equal, to the last bit, its entry in ``--algorithm all``. The six
``fit synth10 all`` entries were re-recorded when ``exhaustive`` began to
refuse by its count of structures, which its skip message gives, and
not by d. Every JSON entry that prints floats (all but the refusals),
and the five ``synth10`` k=4 text entries of ``fit`` and
``report``, were re-recorded when the prefix walk became the only route
that sums a marginal: (k−1)-subsets and singles were summed out of
prefetched k-supersets before, so their last bits moved, and on
``synth10`` at k=4 that broke ties between equal-weight candidates
another way (``fit --k 4`` returns another tree of equal weight).

``SAMPLES_EXPECTED`` does the same for samples files, which the reader
parses on another path: ``fit`` at k=3 (sk and malvestuto, text and
JSON) on two files built here from fixed seeds, a binary d=10 one whose
rows are all single digits and one with a variable of cardinality 12,
whose two-digit states the byte decoder leaves to the general reader.
These hashes were recorded before the samples reader gained its byte
decoder. The ``fit --k 4`` entries on a binary d=14 file of 20,000 rows
and on a d=9 file of cardinalities 2 to 4, where the 4-marginals come
in many shapes, were recorded before the marginal cache stacked its
marginals and computed entropies per stack. The eight JSON entries
were re-recorded, for the same reason as above, when the prefix walk
became the only route that sums a marginal.

``COMMAND_EXPECTED`` pins the commands that take a tree or write files,
on the same ``synth10`` bundle: ``check TREE DATA`` and ``score`` (text
and JSON) give the SHA-256 of stdout, and ``synth`` (text and JSON, run
with ``--out s10`` in an empty directory, so the paths it prints are
fixed) that of stdout and of each of the three files it writes. They were
recorded before the JSON writer stopped inferring row templates from
lists of dicts. Both ``score`` entries were re-recorded when the
prefix walk became the only route that sums a marginal: ``score`` then
filled the tree's clusters and separators in one walk instead of
reducing each alone from the joint, which moved the last bits of its
floats (the text's KL residual went from -1.22125e-15 to
-5.55112e-16).

The JSON outputs carry floats at full precision. They were recorded on
x86-64 with numpy 2.4; another numpy build may sum in another order and
differ in the last bits.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from tcherry.cli import main

EXPECTED = {
    ("fit", "lizards", "sk", 2, "text"): (0, "d16dd0aa163d6a0ac66ca7327c5c717471049ff2d83e485fc593960941870e8c"),
    ("fit", "lizards", "malvestuto", 2, "text"): (0, "ea7abc007fa9f366f389997a12e619ab15d8511bcbcf7fa21dded699e3a5f52f"),
    ("fit", "lizards", "chow_liu", 2, "text"): (0, "bd17889226453a44cb6d2465ddf42be61b14004a9f850caba7d33335bef3a79b"),
    ("fit", "lizards", "exhaustive", 2, "text"): (0, "3d0fecaa643c0c8b8f4919c7cba9a695f6c8c1fdd3fa664c51c3a5c583883a0e"),
    ("fit", "lizards", "all", 2, "text"): (0, "6d115673dca705b53287818376c613e6c90414d3c65ec54495e888cb7f196459"),
    ("report", "lizards", "sk", 2, "text"): (0, "c1808010a97a9028175e506dd8412f25402c02f6fef9157d177fb7d2278c02b0"),
    ("report", "lizards", "malvestuto", 2, "text"): (0, "85487bf7c2dc383a52af0d07bd8e07db8a5c6db93dc4bb50290a360a1f2900a4"),
    ("fit", "lizards", "sk", 3, "text"): (0, "dc441a007aff3969c3ff436f18f4f5577e1922927719b41934636370e131ae1e"),
    ("fit", "lizards", "malvestuto", 3, "text"): (0, "1dfa4524fad6ec2345712d0a60a741da8c2ebc06f231de788dc9bc36d81495e4"),
    ("fit", "lizards", "chow_liu", 3, "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 3, "text"): (0, "2a20ce5d53108102c54b040523bdf9eaf3a0f4a13ebe77710f3329a87b23d469"),
    ("fit", "lizards", "all", 3, "text"): (0, "c0a2e07dc94219d759af38b6259edee4079842b7c5e19cc7679295941bbcdcfe"),
    ("report", "lizards", "sk", 3, "text"): (0, "8060de56f3f57ef5215627affebe386cd92a6468a193307478c827025e0f1841"),
    ("report", "lizards", "malvestuto", 3, "text"): (0, "60f57b6d43afa21c727829c29322c3237fbf75aa8b5417d69d7ce3c86f61ec3f"),
    ("fit", "lizards", "sk", 4, "text"): (0, "e87eee2bfdf4d8e9a10f226cb0498bcbcd38f9bb26f20491e9d82f13837a9007"),
    ("fit", "lizards", "malvestuto", 4, "text"): (0, "3132d12dd6d7f423a6325c27427b62034ba3c66ae9fb85299f59ccb834fa3a60"),
    ("fit", "lizards", "chow_liu", 4, "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 4, "text"): (0, "c4394937a3c11c5c513379c2698c20f897903d5953982060b22d98a8cd3cd8be"),
    ("fit", "lizards", "all", 4, "text"): (0, "6b92784d19d143b6aabd01d84992e62a225a472d6e1dc12b60cde85f58326c76"),
    ("report", "lizards", "sk", 4, "text"): (0, "46c65132fc6dc9f328554270c42cf162ce30465d1a293ded01091dc0ab69ae96"),
    ("report", "lizards", "malvestuto", 4, "text"): (0, "5b503344db5f56fd6d5518cd47927246030f3a93466279da966321b104c2a5df"),
    ("fit", "lizards", "sk", 2, "json"): (0, "a61214cd8cf6ba09248b75eb5fea91e654189fff7d71cba061fdf74b9e114d57"),
    ("fit", "lizards", "malvestuto", 2, "json"): (0, "f2053f7cffd990774b72d4997f1c004b8d83c6dd85a0b40110e74b3fef42e483"),
    ("fit", "lizards", "chow_liu", 2, "json"): (0, "dc04d37f330db4eaa44f98049baae2444a1db25a280d2e928942875f61251571"),
    ("fit", "lizards", "exhaustive", 2, "json"): (0, "c230f81605d587e0fa2e99e0c21a56487f3c248bea95ba711fcb066135d35cb5"),
    ("fit", "lizards", "all", 2, "json"): (0, "a164f4a3a3825ab3ea322ab35aaf00a0a3085ea16400478f2b6834b0fa4eb1b9"),
    ("report", "lizards", "sk", 2, "json"): (0, "d88564d1127f6ec272407277ec0a682329a15fc23def130384d20d1b0ff1a93b"),
    ("report", "lizards", "malvestuto", 2, "json"): (0, "2388528cda9838817e7f271b4944e16e8cfb208821ee526dc9b6453cbbe19b01"),
    ("fit", "lizards", "sk", 3, "json"): (0, "72acf2b1b40817e59968eb49446eef16242d5b6d4990093ca248eb633f03f5d4"),
    ("fit", "lizards", "malvestuto", 3, "json"): (0, "414df31c9300c9523657609fb740e93de73755399c093d292bfccb95d0a546b6"),
    ("fit", "lizards", "chow_liu", 3, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 3, "json"): (0, "0a4b77070f0561078b0235a6e62bf9c4aeb20d7beaca72d9de9753be359f11cc"),
    ("fit", "lizards", "all", 3, "json"): (0, "55636fdfceac57b59ce430ca18c05570b4f1ec1c6938066d7b51959ea6b135e0"),
    ("report", "lizards", "sk", 3, "json"): (0, "f08456ae9473d872b25b1a357e1032bc93a8aab80da7886c2af1376ee76bd8d0"),
    ("report", "lizards", "malvestuto", 3, "json"): (0, "339acd0e7b2c65ad37ad083aebd1e4af3393da0b1473ebeb22bc1a5d92952992"),
    ("fit", "lizards", "sk", 4, "json"): (0, "ced19b38a379641fe0d8faaea5eeb2362d03f9665b4e364acdfe3a0a0a6a7c75"),
    ("fit", "lizards", "malvestuto", 4, "json"): (0, "4c07d05eda8d4944160847050a105de58b5a9ad2b5e67adf3eff79b0d80acf4e"),
    ("fit", "lizards", "chow_liu", 4, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 4, "json"): (0, "508a60f305d08d59d676f31cc58e7cee8ca8c3df2c91e0f44bc04c08c6d0a838"),
    ("fit", "lizards", "all", 4, "json"): (0, "1d3e0b6916b2b95eebaa0f251d2c1de5e90715925a654c784624839dde718a1e"),
    ("report", "lizards", "sk", 4, "json"): (0, "6b314f9aa7673c4b8407d0e66bffd2c3b7829aef7027d765cdb7fb69de44c321"),
    ("report", "lizards", "malvestuto", 4, "json"): (0, "2ec7a73b8882abae502c790fd4f5ee0e0bd7d44d5141cdacd752a4e19f529691"),
    ("fit", "synth10", "sk", 2, "text"): (0, "91b35ebac7e16cc87ae5c1b84629603223ea86b386b250461856967110cc7463"),
    ("fit", "synth10", "malvestuto", 2, "text"): (0, "72fcf8cc0771aa02ef8fae7e7365c3eb6093d925aceece8fc6777c6d1d2deefb"),
    ("fit", "synth10", "chow_liu", 2, "text"): (0, "cda986849489eab437a0fc74406ebfb95bbb049237a30292b06290e1f3afcc77"),
    ("fit", "synth10", "exhaustive", 2, "text"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 2, "text"): (0, "4501bce2205c1337fb6cc72ab4f9e42ac1847441c2df5ba3feb13ca3580f1cd8"),
    ("report", "synth10", "sk", 2, "text"): (0, "74273f5d201b5cadb36c2850935d9ce0c7eec58ff001f3b685c7ffe688aba33b"),
    ("report", "synth10", "malvestuto", 2, "text"): (0, "e99f05c26cd9a45bd5c654cd3450bcf565e7ccd965264b7dba52cc2d45a78acb"),
    ("fit", "synth10", "sk", 3, "text"): (0, "6328e4e5031f47d983d69029bd0b4f526f929e224c69ccc43fb18bddb529c5b9"),
    ("fit", "synth10", "malvestuto", 3, "text"): (0, "336be3191f29e7f3ddbe1087b281073671ec7be6409314f397d4cd119b9763d2"),
    ("fit", "synth10", "chow_liu", 3, "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 3, "text"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 3, "text"): (0, "ea43c77de7048bf3a2f199ab620f134b20c2debd3592e58125e718d438c83ec2"),
    ("report", "synth10", "sk", 3, "text"): (0, "86d90086cb8a76f2a365aaea8a89b81588b07008d507c32c955e8ad7febca8c7"),
    ("report", "synth10", "malvestuto", 3, "text"): (0, "9b604d72d6a0beb22e79faf0b309f859b00ed03bc86742326c9afbe2b83f57ca"),
    ("fit", "synth10", "sk", 4, "text"): (0, "b0268970781b0d907f7c7c0fb759d3c2e48675c0294b1b7f1514333355623276"),
    ("fit", "synth10", "malvestuto", 4, "text"): (0, "faedaa40155370f4bfa82efcdebee96af69cab5aae980abb00bd2fe22201c2b2"),
    ("fit", "synth10", "chow_liu", 4, "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 4, "text"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 4, "text"): (0, "6e38f95ec3c8e423dfe5bf8f4773faf7f78420f3c243d01b65bd3dc8d465247b"),
    ("report", "synth10", "sk", 4, "text"): (0, "267e76ade3ce3048fad469321e4c895a8d3c2f38a5799d150071d02b65c67c9f"),
    ("report", "synth10", "malvestuto", 4, "text"): (0, "b1d466d8c4f6cae4a1c7943736048ec4b727f19ac82c1e8a7cfb4173aceb00df"),
    ("fit", "synth10", "sk", 2, "json"): (0, "308aa3e6bb4bb0e3d29cce451d6a0495f1483247c25854c32c923c7e6b53783c"),
    ("fit", "synth10", "malvestuto", 2, "json"): (0, "9e49d0e6f8bfb04f2b3225d2729508ec7e627b3997dfde9b291b5bedc4f660f1"),
    ("fit", "synth10", "chow_liu", 2, "json"): (0, "c52c3a6efbdb415839ad3c65139af424484ca001067409ebd500e08b4c84c14b"),
    ("fit", "synth10", "exhaustive", 2, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 2, "json"): (0, "d74a224f283727ef46ecc992c7fe1cf79f0605d7a0484dd8bcfded9477c6adaf"),
    ("report", "synth10", "sk", 2, "json"): (0, "08df67e41b94024d5cce2c672413a669c93ec4cbb060b6c27a97677cbaabf5fb"),
    ("report", "synth10", "malvestuto", 2, "json"): (0, "653cd0079d96c7bd73b7d7bfa04a1c30f84c62c11bfb67661931479cb655c6a5"),
    ("fit", "synth10", "sk", 3, "json"): (0, "60ecf7eca1f43e9a456579df4129ccdc2c3bc349850d3ee623e7047ab1534ff3"),
    ("fit", "synth10", "malvestuto", 3, "json"): (0, "aed07387ab01efa4fe836b5ca37211065fa19b51beb47a11f38061f92c303184"),
    ("fit", "synth10", "chow_liu", 3, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 3, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 3, "json"): (0, "d668a6982883e627a093e44e17bdee43531d12c0ecfd4837b8f80e2574b751bb"),
    ("report", "synth10", "sk", 3, "json"): (0, "b25af34ef6af2c9ad30384f5bd7dd50fca77d946195ecc2bcef75f1287a743d2"),
    ("report", "synth10", "malvestuto", 3, "json"): (0, "f718a3cabb171b5e2fb0a51e2c40d1758f33fb66ad61cd7044522e0c8d336814"),
    ("fit", "synth10", "sk", 4, "json"): (0, "47f1cdbe0631586fc836a47ea49f480238977666289d3c9a62c9c4062f91056b"),
    ("fit", "synth10", "malvestuto", 4, "json"): (0, "ecd6d19f1e1433139e7d5ef2c159e36ebcf13314c278dc3f58c1dc592cb77c96"),
    ("fit", "synth10", "chow_liu", 4, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 4, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 4, "json"): (0, "d5ae5b244d1f2a0665662f978e00cb165d2a15f3d98e7e1089ea3e916d51fbe9"),
    ("report", "synth10", "sk", 4, "json"): (0, "a14fc92a143b8e5f4370c265245e9563ba141462d1398c5d0041fa920b51ff44"),
    ("report", "synth10", "malvestuto", 4, "json"): (0, "5fd93837ecaa5365de81617cdfbf6464e88fd4f81fb7702327dd753c576b3691"),
    ("fit", "synth6", "sk", 3, "json"): (0, "7b69b16d4e862f7cd528f31bdc4823fe201418bc6d3e1257ea79bec60141c9cc"),
    ("fit", "synth6", "malvestuto", 3, "json"): (0, "7c6453df3c8820d2c0e01ba1a68d318fc19f22081aebc75d9d5ad6fd97c76eea"),
}


SAMPLES_EXPECTED = {
    ("fit", "binary10", "sk", 3, "text"): (0, "90e8388b085c3057727a124e7bf2aad3ed33f536025c26b7e1aafe949b2fb934"),
    ("fit", "binary10", "malvestuto", 3, "text"): (0, "bc9dea5f70b01ce7eeb6c0c13f8bc92f9460a6e763a8de16e656c25d628ab7c3"),
    ("fit", "binary10", "sk", 3, "json"): (0, "c7600ed727cc815f7d490a69d0d48abd872ccfde5f75de305672f83e6e4de840"),
    ("fit", "binary10", "malvestuto", 3, "json"): (0, "6e53e150f1df285ef0fec5b6ef53061be08b6c884225debd16dec45bcea32b5f"),
    ("fit", "card12", "sk", 3, "text"): (0, "7c306c81efdbe1cdad142e49ac3e717cdbd5a406f9d6ccdcfa2ee115c8c002ad"),
    ("fit", "card12", "malvestuto", 3, "text"): (0, "12c758a73fd5fc38ceb2134c4e625c0c2b227a80d9716ff74ff872089f51a797"),
    ("fit", "card12", "sk", 3, "json"): (0, "6de05e4ced2af2ca643a5826b73cf89291cdc587a969ef44ae06a77ba7bd12e1"),
    ("fit", "card12", "malvestuto", 3, "json"): (0, "688038050e1c62368aae39204df9dc8a60487a77d740b391c5f9f6e2b34cb6c3"),
    ("fit", "binary14", "sk", 4, "text"): (0, "12519e60c1be58a40578be01118cfba6ec996d5398b794d01c58706ce49c4b98"),
    ("fit", "binary14", "malvestuto", 4, "text"): (0, "bb8e8d70aaac43f33948c2dda55ac536ebf4fef8eb4345f0416668cb3248db8c"),
    ("fit", "binary14", "sk", 4, "json"): (0, "a0de96fd43931b0a29276387d2f1f4a0dfe3eec7550a49794651aa6e62f09471"),
    ("fit", "binary14", "malvestuto", 4, "json"): (0, "b8aaff30c5e0a578e5984ecff5095c6e4314556515da382d6b8660eabe663ded"),
    ("fit", "card9", "sk", 4, "text"): (0, "55c5c8ab6a9f65ecb9ae7a85782e0653d5e14cb12538278b812ce5ae40e3e03f"),
    ("fit", "card9", "malvestuto", 4, "text"): (0, "66c5a7604f56198a980800470d2b1e03be68cc13b9216906782f07324e6aa232"),
    ("fit", "card9", "sk", 4, "json"): (0, "502294f40eb2f162d9c10292dc2dc024b16e8f9c37e82ea6590741fc6678aa1b"),
    ("fit", "card9", "malvestuto", 4, "json"): (0, "626171a6ec47f51f37a0e64c8a43fb57ffb0885d862af9790edcc0ec7a3d9fb3"),
}


COMMAND_EXPECTED = {
    ("check", "text"): (0, "69312f04e5716c5a2e7c94275dec8bf8f7d3cf6222de915aafaa74d4c4805890"),
    ("check", "json"): (0, "d7bb44f28dda6b847c7e31fb1ed0b107ffd1f2776675fe6993bf790423119d81"),
    ("score", "text"): (0, "58e54c2829ca8ca88fc23bc5fed182e02ad6702fa881e3245a2591b3cca2ef36"),
    ("score", "json"): (0, "afcedb62adebc8e9941e0a8d9ef791b34348d4b87f98ecee92192c9e7a36a30c"),
}

_SYNTH_FILES = {
    ".csv": "f2c8cb055f26ed94395af4955a0d49cfc129f3c1ba574fe0cda4ac2a276a7ac9",
    ".scheme.json": "1b37d27851aac045408920b5b3ebdf5b7f7fb24253c08e03de2a4d513d7ded98",
    ".tree.json": "6eb8577b02ded70ce8b70c9c340b261c7873a7be20095599f6fafd6890ccc027",
}

SYNTH_EXPECTED = {
    "text": (0, "5a4c70dec24852e9a9452c95531f3529aea1b978e0aff64fb9ff08424cab6a7a", _SYNTH_FILES),
    "json": (0, "7488ec23898103e87bfd01957bdc1bbfb5c442f8e23097ec2e1596c1c361a4eb", _SYNTH_FILES),
}


def _write_samples(path, cards, n, seed):
    """``n`` sample rows in which each variable copies the one before it
    (modulo its cardinality) with probability 0.6 and is uniform otherwise."""
    rng = np.random.default_rng(seed)
    codes = np.empty((n, len(cards)), dtype=np.int64)
    codes[:, 0] = rng.integers(cards[0], size=n)
    for j in range(1, len(cards)):
        copy = rng.random(n) < 0.6
        codes[:, j] = np.where(copy, codes[:, j - 1] % cards[j], rng.integers(cards[j], size=n))
    header = ",".join(f"x{i + 1}" for i in range(len(cards)))
    body = "".join(",".join(map(str, row)) + "\n" for row in (codes + 1).tolist())
    path.write_bytes(f"{header}\n{body}".encode())
    return str(path)


@pytest.fixture(scope="module")
def samples_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("samples")
    return {"binary10": _write_samples(base / "binary10.csv", [2] * 10, 5000, 17),
            "card12": _write_samples(base / "card12.csv", [3, 12, 2, 5, 4, 2], 4000, 18),
            "binary14": _write_samples(base / "binary14.csv", [2] * 14, 20000, 19),
            "card9": _write_samples(base / "card9.csv", [2, 3, 4, 4, 2, 3, 3, 4, 2], 20000, 20)}


@pytest.fixture(scope="module")
def synth10(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("hashes") / "s10"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "10", "--k", "3", "--n", "5000", "--seed", "3",
                     "--out", str(prefix)]) == 0
    return f"{prefix}.csv"


@pytest.fixture(scope="module")
def synth6(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("hashes") / "s6"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "6", "--k", "3", "--seed", "9", "--cards", "2,3,2,2,3,2",
                     "--strength", "0", "--out", str(prefix)]) == 0
    return f"{prefix}.csv"


def _run(command, path, algorithm, k, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--k", str(k), "--algorithm", algorithm, "--format", fmt, path])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, data, algorithm, k, fmt", list(EXPECTED))
def test_stdout_bytes_are_unchanged(synth10, synth6, command, data, algorithm, k, fmt):
    path = {"lizards": "lizards.csv", "synth10": synth10, "synth6": synth6}[data]
    assert _run(command, path, algorithm, k, fmt) == EXPECTED[command, data, algorithm, k, fmt]


@pytest.mark.parametrize("command, data, algorithm, k, fmt", list(SAMPLES_EXPECTED))
def test_samples_stdout_bytes_are_unchanged(samples_files, command, data, algorithm, k, fmt):
    assert (_run(command, samples_files[data], algorithm, k, fmt)
            == SAMPLES_EXPECTED[command, data, algorithm, k, fmt])


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, fmt", list(COMMAND_EXPECTED))
def test_tree_command_stdout_bytes_are_unchanged(synth10, command, fmt):
    prefix = synth10[:-len(".csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, f"{prefix}.tree.json", synth10, "--format", fmt])
    assert (code, _sha(out.getvalue())) == COMMAND_EXPECTED[command, fmt]


@pytest.mark.parametrize("fmt", list(SYNTH_EXPECTED))
def test_synth_stdout_and_file_bytes_are_unchanged(tmp_path, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["synth", "--d", "10", "--k", "3", "--n", "5000", "--seed", "3",
                     "--out", "s10", "--format", fmt])
    files = {name: hashlib.sha256((tmp_path / f"s10{name}").read_bytes()).hexdigest()
             for name in (".csv", ".scheme.json", ".tree.json")}
    assert (code, _sha(out.getvalue()), files) == SYNTH_EXPECTED[fmt]
