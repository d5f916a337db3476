#!/usr/bin/env python
"""Regenerate the paper's Fig. 4 panels from simulated data.

Produces (into ./viz_out/):
  * fig4_b_bv_ego.pgm / fig4_e_bv_other.pgm — the two BV images,
  * fig4_c_mim_ego.pgm / fig4_f_mim_other.pgm — their MIM feature maps,
  * fig4_g_matches.pgm — side-by-side match visualization,
  * fig5_fused_scene.pgm — the fused scene with detected boxes (Fig. 5),
and prints an ASCII preview of the ego BV image.

Run:
    python examples/visualize_matching.py
"""

import pathlib

from repro.bev import compute_mim
from repro.core import BBAlignConfig, BVMatcher
from repro.simulation import ScenarioConfig, make_frame_pair
from repro.viz import (
    render_bv_ascii,
    render_bv_image,
    render_match_image,
    render_mim_image,
    render_scene_image,
    save_pgm,
)


def main() -> None:
    out = pathlib.Path("viz_out")
    out.mkdir(exist_ok=True)

    # The paper's Fig. 4 uses two cars 45 m apart.
    pair = make_frame_pair(ScenarioConfig(distance=45.0), rng=2)
    config = BBAlignConfig()
    matcher = BVMatcher(config)
    ego = matcher.extract_from_cloud(pair.ego_cloud)
    other = matcher.extract_from_cloud(pair.other_cloud)
    match = matcher.match(other, ego)

    save_pgm(render_bv_image(ego.bv_image), out / "fig4_b_bv_ego.pgm")
    save_pgm(render_bv_image(other.bv_image), out / "fig4_e_bv_other.pgm")
    # The features keep no MIM (it only feeds the descriptors); the
    # panels recompute it from the same images and Log-Gabor bank.
    save_pgm(render_mim_image(compute_mim(ego.bv_image, config.log_gabor)),
             out / "fig4_c_mim_ego.pgm")
    save_pgm(render_mim_image(compute_mim(other.bv_image,
                                          config.log_gabor)),
             out / "fig4_f_mim_other.pgm")
    save_pgm(render_match_image(other.bv_image, ego.bv_image,
                                match.matches,
                                inlier_mask=match.ransac.inlier_mask),
             out / "fig4_g_matches.pgm")
    save_pgm(render_scene_image(
        [pair.ego_cloud, pair.other_cloud.transform(match.transform)],
        boxes=[[v.box.to_bev() for v in pair.ego_visible]]),
        out / "fig5_fused_scene.pgm")

    print(f"match: {match.num_matches} correspondences, "
          f"{match.inliers_bv} inliers, translation error "
          f"{match.transform.translation_distance(pair.gt_relative):.2f} m")
    print(f"wrote 6 PGM panels to {out}/\n")
    print("ego BV image (ASCII preview, +y up):")
    print(render_bv_ascii(ego.bv_image, width=78))


if __name__ == "__main__":
    main()
