"""The examples under ``examples/`` still run against the package.

No other test imports them, so an API change (a removed field, a
renamed function) would otherwise break them silently.
"""

import pathlib
import runpy

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def test_visualize_matching_writes_its_panels(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(EXAMPLES / "visualize_matching.py"),
                   run_name="__main__")
    panels = sorted(p.name for p in (tmp_path / "viz_out").iterdir())
    assert panels == [
        "fig4_b_bv_ego.pgm", "fig4_c_mim_ego.pgm", "fig4_e_bv_other.pgm",
        "fig4_f_mim_other.pgm", "fig4_g_matches.pgm",
        "fig5_fused_scene.pgm"]
    for name in panels:
        assert (tmp_path / "viz_out" / name).read_bytes().startswith(b"P5")
    assert "wrote 6 PGM panels" in capsys.readouterr().out
