"""Byte-level pins of every output the three CLI commands produce.

Each config below is run through ``run``, ``figures`` and ``verify``. The
sha256 of every CSV, of ``manifest.txt`` without its ``created_utc`` line and
of ``verify``'s stdout must match the values recorded here. The configs reach
what paper_fig (pinned by perfbench/golden.json) does not:

* driftless ``state:`` noise on two seeds at 20000 steps, so the rotation
  checks run and ``verify``'s oracle checks the path's first 4000 steps;
* ``psi`` at 20480 steps, 2.5 CSV chunks;
* a drifting ``u`` at 2048 steps, where the oracle of ``run`` and ``verify``
  checks the whole path.

Noise and float results depend on numpy, so the hashes hold for the numpy
version they were recorded with; other versions skip.
"""

import hashlib

import numpy as np
import pytest

from rangebound import cli

RECORDED_NUMPY = "2.4.6"

CONFIGS = {
    "driftless_state": (
        "t_max=5\nn_steps=20000\na=const:0\nsigma=state:1.5\nu=sin:1,1,3\nseeds=1,2\n"
    ),
    "psi": "t_max=5\nn_steps=20480\na=sin:1,2,3\nsigma=sin:2,1,1\npsi=sin:1,0.5,2\nseeds=1\n",
    "drifting_u": (
        "t_max=5\nn_steps=2048\nx0=0.3\na=sin:1,2,3\nsigma=sin:2,1,1\nu=const:1\nseeds=1\n"
    ),
}

FROZEN = {
    "drifting_u": {
        "figures/fig1_x.csv": "5380ca25d5fa7d51355952243c7c37e04ca40be6e16da43ff9cef342bc594e90",
        "figures/fig2_X.csv": "e32805aa53282dc92c5fd26ad56a82809fbc0719341a1d2e14962bfe438ab642",
        "figures/fig3_Y.csv": "a7bea6c524f850894d5ecb14c9577b8c83d0ac829f798b722d317e578b30e9a2",
        "figures/fig4_XY.csv": "3250741d25e0bcce94289254303f5ed929b1330d5441325c27e1365dd331fb92",
        "figures/fig5_modZ.csv": "32a336de0cb0f49c06a360683848e75588c77b2d954bfbf90d92b1ce57b6b8f2",
        "figures/fig6_intXdx.csv": "4caa77656e15379e108c2e4885bb873c5079008d7f99a53cf2a1e851fc63f350",
        "run/manifest.txt": "9ff072558975514aeef74622f7e480cb47b426bc105426022d028e55fff39ac2",
        "run/seed1/bound_t1.csv": "9a7fa5a95c269a3ca2385b827c79da58709c16a5b163a3214e19e162853b5c04",
        "run/seed1/identity_t1.csv": "4b4dfcbcb6568d54c62eb4d33ee963757388d2708d802dc2605ec59f3a6718a7",
        "run/seed1/identity_t2.csv": "67356a0379aa6a58001ce195fb06197ff2d20b51138842591a44ff97fb25fec4",
        "run/seed1/t1.csv": "3250741d25e0bcce94289254303f5ed929b1330d5441325c27e1365dd331fb92",
        "run/seed1/t2.csv": "5d318c02fb1f0bb9282fad4fa26a3ca4f5c0354d57200182f2594df1dc528d88",
        "run/seed1/x.csv": "0c11015677e6cec0e0424024333b1fcfe35e7561a5a12a9376dcf336a53ba81a",
        "verify/stdout": "3667b6b482e68bb0d8baa8946263acee70279cf59c269cce0c1fd35b635eff8a",
    },
    "driftless_state": {
        "figures/fig1_x.csv": "cac5a5d270a9b68537aa3e03163220696ceec134a2485d22a27f394cf32ee5d5",
        "figures/fig2_X.csv": "ba365025eddd1ffcaa4644476bc058579f2ab63f9b6035edf87980b7a3f5a4e4",
        "figures/fig3_Y.csv": "e3bdcbdf22d82b596b91b14c59ff18d95c730461bf54f43c22377e8c95df3f88",
        "figures/fig4_XY.csv": "299e9f9a85217dfe358bb01df69c95aecbadae932287ee1bf45d5afcbbd58073",
        "figures/fig5_modZ.csv": "2af14b2d2d407a0faa4514b04cc322ab571baebf55982f2007e9a5bf92cd0b29",
        "figures/fig6_intXdx.csv": "b7bba8c89b7d6e46790e43d04bce1317924cf0f986213d886aa41cf961033546",
        "run/manifest.txt": "cc2ee68f90fd5719c1feb52423b439a76db648db2ddcbdb954616f36101cdd8a",
        "run/seed1/bound_t1.csv": "ae9f18eaa4770ef91c325b1c9e2e5599ca167af733f0a0fc2877e6e0e481f967",
        "run/seed1/identity_t1.csv": "ca0c9fc845e4d5e499fde62a544b40cd4a6799e77459ef76c2a53930336309bd",
        "run/seed1/identity_t2.csv": "e11ec5638240da27de00f0283d2a17a4aa40e3d9ca3134b044083b19200c9f39",
        "run/seed1/rotation_scaled.csv": "89c4774ca81f29b160742fdb1ff5c8ac97d9edba3974345ab7996e7ffbc83f11",
        "run/seed1/rotation_unit.csv": "01d3014d63415c3c3086fe5348cfb29a1aa7103303b931d3ecb1cdd79c442aeb",
        "run/seed1/t1.csv": "299e9f9a85217dfe358bb01df69c95aecbadae932287ee1bf45d5afcbbd58073",
        "run/seed1/t2.csv": "7adca95ea73ad51a7bed6acdffacaaa2e2cfa5218927884800a56fafcc8c8107",
        "run/seed1/x.csv": "5c05fbc691b78b964d3746115bff14cd54061d9453b1655aa723c2ef8e27065a",
        "run/seed2/bound_t1.csv": "432163cdc9ae6cc6ae76a5744ed679c1117446623bc8be994c2772b22783024b",
        "run/seed2/identity_t1.csv": "b2912ee90dbe30648cb367d0dfe725c1c2cda1c12c439319b3c981804fb43085",
        "run/seed2/identity_t2.csv": "63ee078e8465f0e9b866009f429e8a4b45a51d500c3b947bebb00f1cd366b64b",
        "run/seed2/rotation_scaled.csv": "ba4add313a10570b0229a4349b41f446dbbfd254d2013d64935cf2119509628b",
        "run/seed2/rotation_unit.csv": "181b082218fb29d37f709d98c290a477fdea6c40aec3972dbfa430c15acf9c2f",
        "run/seed2/t1.csv": "559032764ffa66e4c06ce63ffbec7542d2ea05d0dfb766e3873f72ad28884a88",
        "run/seed2/t2.csv": "7be137f04852adfb22466678f190eeb02871526213aa597bf7f5bc7b0cf8eebf",
        "run/seed2/x.csv": "8c8b237b4a846cf1fe06485fa385118dd1b65d452e3e3db2f0616a88f22037df",
        "verify/stdout": "3d25381c58fdc43ab045171b61ab718d0374edd6b4ae061f5ab766abb81872e4",
    },
    "psi": {
        "figures/fig1_x.csv": "ebcc0fe9190b54008577a66a6cea13b055003fe92bd83d2b76dae7c462a28531",
        "figures/fig2_X.csv": "f5d9a340bef293c4709b65ffdcae1dcf7cc7cee00e56a9a2bfde644b98b00651",
        "figures/fig3_Y.csv": "a70902c2388d76524159a0da23fbe52d25a0ce88ea93959ed91aaea7c241babb",
        "figures/fig4_XY.csv": "f05647bf11ec10af4db29aebcc3c35716d921ac5512f3bafb72a3137129096fd",
        "figures/fig5_modZ.csv": "a28e63be60c32d9a2763c7c003cbbf4d344775dff37d759308f41a65c167c8eb",
        "figures/fig6_intXdx.csv": "eddde06d93bd5aa7e81a14164b7c5d72f86e067ce5ebbf435a12192abf2a21b9",
        "run/manifest.txt": "a754e824732e6f88efdbe760662bd4b4005578f88c1500cb79233e84f479b4ec",
        "run/seed1/bound_t2.csv": "159cbe9f8563b7c4698d8442b5ecea1f382d205f40c0a408e35dce1a7c481133",
        "run/seed1/identity_t1.csv": "db593bc68abf36fb50df774aa85e80f0893debf6e895684dde523b418dadb0fb",
        "run/seed1/identity_t2.csv": "c5fe5c0758c3b5a094c9593d582556c59e898fad0f9f5e6b27b3d702b7c1db29",
        "run/seed1/t1.csv": "f05647bf11ec10af4db29aebcc3c35716d921ac5512f3bafb72a3137129096fd",
        "run/seed1/t2.csv": "d33dee44e67705f00943e49df6beb4f67c483ba23924cc2fdb7d2bc444051770",
        "run/seed1/x.csv": "8cb3952342b0f1f3ff68f529566103effc691d171a90bf109a83ee050431e8de",
        "verify/stdout": "958209efbbaabfdc08202380e3bb6d0fe9af0c2dca5bebf78f2cf97d13c709ea",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(tmp_path, monkeypatch, capsys, text):
    """sha256 of every output of run, figures and verify on one config."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "frozen.cfg").write_text(text)
    assert cli.main(["run", "frozen.cfg", "--out", "out"]) == 0
    assert cli.main(["figures", "frozen.cfg", "--out", "figs"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "frozen.cfg"]) == 0
    digests = {"verify/stdout": _sha(capsys.readouterr().out.encode())}
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    kept = "".join(l for l in manifest.splitlines(True) if not l.startswith("created_utc"))
    digests["run/manifest.txt"] = _sha(kept.encode())
    for command, root in (("run", tmp_path / "out"), ("figures", tmp_path / "figs")):
        for csv in sorted(root.rglob("*.csv")):
            digests[f"{command}/{csv.relative_to(root).as_posix()}"] = _sha(csv.read_bytes())
    return digests


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"hashes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}",
)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_recorded_hashes(tmp_path, monkeypatch, capsys, name):
    assert _outputs(tmp_path, monkeypatch, capsys, CONFIGS[name]) == FROZEN[name]
