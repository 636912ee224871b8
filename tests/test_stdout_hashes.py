"""Tier-1 byte-identity guard for the stdout of every command.

Each entry maps (command, input, algorithm, k, format) to the exit code
and the SHA-256 of stdout as the command printed it before the candidate
table became columnar: every algorithm at k = 2..4 for ``fit``, ``sk``
and ``malvestuto`` for ``report``, text and JSON, on ``lizards`` and on a
``synth --d 10 --k 3 --n 5000 --seed 3`` counts file. A change to any
byte of these outputs must be deliberate and comes with new hashes.
The three ``fit lizards exhaustive {2,3,4} json`` entries were
re-recorded when ``exhaustive`` began to score from the marginals its
candidate table prefetches, as the other fits do: its w, ω and score
then equal, to the last bit, its entry in ``--algorithm all``. The six
``fit synth10 all`` entries were re-recorded when ``exhaustive`` began to
refuse by its count of structures, which its skip message gives, and
not by d.

``SAMPLES_EXPECTED`` does the same for samples files, which the reader
parses on another path: ``fit`` at k=3 (sk and malvestuto, text and
JSON) on two files built here from fixed seeds, a binary d=10 one whose
rows are all single digits and one with a variable of cardinality 12,
whose two-digit states the byte decoder leaves to the general reader.
These hashes were recorded before the samples reader gained its byte
decoder. The ``fit --k 4`` entries on a binary d=14 file of 20,000 rows
and on a d=9 file of cardinalities 2 to 4, where the 4-marginals come
in many shapes, were recorded before the marginal cache stacked its
marginals and computed entropies per stack.

``COMMAND_EXPECTED`` pins the commands that take a tree or write files,
on the same ``synth10`` bundle: ``check TREE DATA`` and ``score`` (text
and JSON) give the SHA-256 of stdout, and ``synth`` (text and JSON, run
with ``--out s10`` in an empty directory, so the paths it prints are
fixed) that of stdout and of each of the three files it writes. They were
recorded before the JSON writer stopped inferring row templates from
lists of dicts.

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
    ("fit", "lizards", "sk", 2, "json"): (0, "652a24cb74b623d8fcc8ef7d1f847baed8bfa2906b1f276ad33f1d313f1b3fe8"),
    ("fit", "lizards", "malvestuto", 2, "json"): (0, "8339a00e526d55a9e4ac2eba4ca51a73635e92746fab553d89f46fdaec1461f1"),
    ("fit", "lizards", "chow_liu", 2, "json"): (0, "2d98987230392362a4431ef883145a53325becf5511ad7e13cd4f4e21b967ac6"),
    ("fit", "lizards", "exhaustive", 2, "json"): (0, "00a1906b38829ad118493c1f856a519d585e0e1b96e777d4702193692ba9bab7"),
    ("fit", "lizards", "all", 2, "json"): (0, "25d0e55f15b3e81a8329de23ca6f3976fc583a6f0c3e48ab8e0339aff3c583f5"),
    ("report", "lizards", "sk", 2, "json"): (0, "ecee046d65fe3966b77e28b8fcd256bddf0c7513bebc8384395744163817edbe"),
    ("report", "lizards", "malvestuto", 2, "json"): (0, "f8667163bf453d8f54c56e2a86d975c85d2104eb5f32af02c71d3cb7e7ae9b50"),
    ("fit", "lizards", "sk", 3, "json"): (0, "dba8adc4b1ac745d6655179c5394bda2fe3baebb3c4516528197f6877d601c31"),
    ("fit", "lizards", "malvestuto", 3, "json"): (0, "d32cc923a418fc589ae4cb171818f2bc8c3fc4cb35d3efe6a91e9f5de4c441b6"),
    ("fit", "lizards", "chow_liu", 3, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 3, "json"): (0, "f025e2b3f153a24463dc21f46773173d296d24efa64fe70994d1da56e5f1b8a8"),
    ("fit", "lizards", "all", 3, "json"): (0, "74a4403aecd41a5f57384a21af9b2fd4a906fe9426b4d58df5b488d50d53c1f4"),
    ("report", "lizards", "sk", 3, "json"): (0, "0f4d9821e3c15ea6ec46043ff536b9151e466de3f5152c0d430299dc65d0de16"),
    ("report", "lizards", "malvestuto", 3, "json"): (0, "6f5a7e4f2f0a0b9415373c41ed857a5acc7e29148e33c0052a442d4d9f61dc07"),
    ("fit", "lizards", "sk", 4, "json"): (0, "7c43bd3f512fb3df275d4d01bf68da7fc016671481e00c86ebac36413b0404ef"),
    ("fit", "lizards", "malvestuto", 4, "json"): (0, "8a39eefdb1de148302829a90cb2e675612f43019a3f9027ed48df9d512cc8f83"),
    ("fit", "lizards", "chow_liu", 4, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "lizards", "exhaustive", 4, "json"): (0, "bab4cc3d36d6c6891a9b2c1fab1e7729d3b1a917fb7b689f0eae732b0d758c8a"),
    ("fit", "lizards", "all", 4, "json"): (0, "f99f46de34d196ac7834ca80973cb165d43b7d2294af8b344432b14242ce2df7"),
    ("report", "lizards", "sk", 4, "json"): (0, "ab0166aa11d1d91daad5a7d7af76bcbfa8b3e06a535d5c9c9ad18f34ab3fe9cd"),
    ("report", "lizards", "malvestuto", 4, "json"): (0, "ede0c1263a85aa04861b4b7c67fa75e9978ba92dcd2bffc1c02b1779528a10cc"),
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
    ("fit", "synth10", "sk", 4, "text"): (0, "be0a558bc66c826fdeed1428a9622221c30c24e7a5ecfbf9b27ac1c85aa9c895"),
    ("fit", "synth10", "malvestuto", 4, "text"): (0, "aa3fd05d76935134fad5392fea3dfd16a219a4911e22b9a7861be10356cf4a37"),
    ("fit", "synth10", "chow_liu", 4, "text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 4, "text"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 4, "text"): (0, "2475090c5a70dfe764924724c5dba005e353a8ab2c9b3c7091f4333257940196"),
    ("report", "synth10", "sk", 4, "text"): (0, "e41aff90358b32ae45f08d8b0bb35d774cd40b8d3eabc090f2bf39e191b21a0d"),
    ("report", "synth10", "malvestuto", 4, "text"): (0, "84f9695f833f5e7995f9e2054107172b85dd7a8604fe30f29b726c437a207915"),
    ("fit", "synth10", "sk", 2, "json"): (0, "262ffce4ec6426bdc1a711ab28458560b9f9234865d164b0661b930706487d2f"),
    ("fit", "synth10", "malvestuto", 2, "json"): (0, "b15d453e89fe12ad1276884f0835dd207fda423cd909126ca1c8b714d444f4e2"),
    ("fit", "synth10", "chow_liu", 2, "json"): (0, "888f51f451126a2a97ccf6c4a7b012b93112444796d569db94242716071d38b2"),
    ("fit", "synth10", "exhaustive", 2, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 2, "json"): (0, "beb5fc1cac369790b0274f0048dcdaabd3ad9252eea12c39f3d28eb4f58bc310"),
    ("report", "synth10", "sk", 2, "json"): (0, "e0597b498a1a41b786edc0c3cf4d35e929c76abc802154f68ee2e0f1c9e1a257"),
    ("report", "synth10", "malvestuto", 2, "json"): (0, "6d41cf2c26010df5e19444045ef3d439386b9f77f6298646aedfa62645ea5a77"),
    ("fit", "synth10", "sk", 3, "json"): (0, "258dc0085ab971a5cb8c3ec82453f8766d1bdf06d824738be068fc365f1e40e8"),
    ("fit", "synth10", "malvestuto", 3, "json"): (0, "0ae45957182a2d515f95f06e1d7e7207077d7f26a4f730245e3911801cd07723"),
    ("fit", "synth10", "chow_liu", 3, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 3, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 3, "json"): (0, "a3c444fce69bac916546da2ebb696801dba85fba8e290acd5565d8f6c9f91d45"),
    ("report", "synth10", "sk", 3, "json"): (0, "fb4bf51f0991b385ff2ad3ebe84b510279e190d9f250c71c2197859894a0b5d4"),
    ("report", "synth10", "malvestuto", 3, "json"): (0, "d95bab7db0891bb004c23edc4e6246c2891e57ffaff5bd802536c065aab5719a"),
    ("fit", "synth10", "sk", 4, "json"): (0, "99f14c9ab97da246c93cdbc7d1f2e88bbf01f415f6b7aa68aae82bbf3c7f56c6"),
    ("fit", "synth10", "malvestuto", 4, "json"): (0, "cb91c7f605dee0730427701c25460ce2701f71f09c27842ce69e6c3d81e51dd1"),
    ("fit", "synth10", "chow_liu", 4, "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "exhaustive", 4, "json"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fit", "synth10", "all", 4, "json"): (0, "ee0f92b1e0687aad4a5eaa36ce6663c311ee95f8b7677c1c6d9a2bd92d6de09f"),
    ("report", "synth10", "sk", 4, "json"): (0, "290d7e9eb1ccdd92f93ad42e2dc90d7770479cb8bf2afd6435da2668e8f792b7"),
    ("report", "synth10", "malvestuto", 4, "json"): (0, "fa970f0d9489391fcd25201b4be87e0ccbc463ec36a19edb3947cbc9ee01b40b"),
}


SAMPLES_EXPECTED = {
    ("fit", "binary10", "sk", 3, "text"): (0, "90e8388b085c3057727a124e7bf2aad3ed33f536025c26b7e1aafe949b2fb934"),
    ("fit", "binary10", "malvestuto", 3, "text"): (0, "bc9dea5f70b01ce7eeb6c0c13f8bc92f9460a6e763a8de16e656c25d628ab7c3"),
    ("fit", "binary10", "sk", 3, "json"): (0, "91947e6fda2326236ed765a70ed222880156a5042273a7c9b940f01d446e2a9c"),
    ("fit", "binary10", "malvestuto", 3, "json"): (0, "a6c30d741047e48e847384b0b9de1154114248003a15b4b9bb0c4fd97d31e85d"),
    ("fit", "card12", "sk", 3, "text"): (0, "7c306c81efdbe1cdad142e49ac3e717cdbd5a406f9d6ccdcfa2ee115c8c002ad"),
    ("fit", "card12", "malvestuto", 3, "text"): (0, "12c758a73fd5fc38ceb2134c4e625c0c2b227a80d9716ff74ff872089f51a797"),
    ("fit", "card12", "sk", 3, "json"): (0, "2715e3bf64c33d53a53d2102bfb7564459982609abecfe184d17106e10cb14a3"),
    ("fit", "card12", "malvestuto", 3, "json"): (0, "61e1a039a0f31d5f7edeee81338a74a4f882090be435718c9cd02546a374bb9b"),
    ("fit", "binary14", "sk", 4, "text"): (0, "12519e60c1be58a40578be01118cfba6ec996d5398b794d01c58706ce49c4b98"),
    ("fit", "binary14", "malvestuto", 4, "text"): (0, "bb8e8d70aaac43f33948c2dda55ac536ebf4fef8eb4345f0416668cb3248db8c"),
    ("fit", "binary14", "sk", 4, "json"): (0, "db70fb347998fdcd0879100d4fe1b5b9d188121efe555fe5206ab8b19b894b1c"),
    ("fit", "binary14", "malvestuto", 4, "json"): (0, "d10ab82f061be877079574930ed8ed5d4150b054aa400209340db43c3bd4fbfe"),
    ("fit", "card9", "sk", 4, "text"): (0, "55c5c8ab6a9f65ecb9ae7a85782e0653d5e14cb12538278b812ce5ae40e3e03f"),
    ("fit", "card9", "malvestuto", 4, "text"): (0, "66c5a7604f56198a980800470d2b1e03be68cc13b9216906782f07324e6aa232"),
    ("fit", "card9", "sk", 4, "json"): (0, "6b0a0f4d86f041c781febd1ac1d87f2dfed4352a03f2963152e150ca9de8c67b"),
    ("fit", "card9", "malvestuto", 4, "json"): (0, "db609074dd90a2a711e7f7b740296573d41c4075a7648b6b118e3c353e29a502"),
}


COMMAND_EXPECTED = {
    ("check", "text"): (0, "69312f04e5716c5a2e7c94275dec8bf8f7d3cf6222de915aafaa74d4c4805890"),
    ("check", "json"): (0, "d7bb44f28dda6b847c7e31fb1ed0b107ffd1f2776675fe6993bf790423119d81"),
    ("score", "text"): (0, "d7d76dda0095686b19b5f7747878308eeb25bc4a38f64839b1a35f99f263e1c2"),
    ("score", "json"): (0, "b48ed5c638af055531b686b24c82e90929bd1643eefa2715597a1acd44943cf1"),
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


def _run(command, path, algorithm, k, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--k", str(k), "--algorithm", algorithm, "--format", fmt, path])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, data, algorithm, k, fmt", list(EXPECTED))
def test_stdout_bytes_are_unchanged(synth10, command, data, algorithm, k, fmt):
    path = "lizards.csv" if data == "lizards" else synth10
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
