"""Keypoint detection, description and matching on BV images.

Implements the remainder of the paper's Section IV-A: FAST keypoints on
the BV image, BVFT-style rotation-normalized descriptors computed from the
MIM, and nearest-neighbor descriptor matching.  The paper's observation
that classic intensity features (SIFT/ORB) fail on sparse BV images is
not exercised here.
"""

from repro.features.descriptors import (
    BvftConfig,
    BvftDescriptorExtractor,
    DescriptorSet,
)
from repro.features.fast import FastConfig, Keypoints, detect_fast
from repro.features.harris import HarrisConfig, detect_harris
from repro.features.pc_keypoints import PcKeypointConfig, detect_pc_keypoints
from repro.features.matching import MatchResult, match_descriptors

__all__ = [
    "BvftConfig",
    "BvftDescriptorExtractor",
    "DescriptorSet",
    "FastConfig",
    "HarrisConfig",
    "Keypoints",
    "MatchResult",
    "PcKeypointConfig",
    "detect_fast",
    "detect_harris",
    "detect_pc_keypoints",
    "match_descriptors",
]
