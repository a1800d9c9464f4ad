"""Displacement growth and the full certificate.

No vertex is fixed by the clique involution, so the next question is how
far it moves each sphere.  The least displacement on sphere r meeting
the bound max(k, 2r - k) of the left-descent lemma, k the size of the
clique, is the finite shadow of a fixed-point-free action out at
infinity: a fixed direction would keep displacement bounded along some
escaping sequence.  The certificate bundles every check into one verdict.
"""

import json

from rcoxeter import (
    build_ball,
    build_involution,
    certify,
    displacement_profile,
    preset,
)

# Displacement profile on the infinite dihedral line: the involution is
# the reflection across the first edge midpoint, so displacement grows
# linearly with the distance from that midpoint.
dinfty = preset("dinfty")
profile = displacement_profile(build_involution(dinfty), build_ball(dinfty, 8))
print("dinfty displacement per sphere:")
for r, lo, hi, mean in zip(profile.radii, profile.mins, profile.maxs, profile.means):
    print(f"  r={r}: min {lo}, max {hi}, mean {mean:.1f}")

# The same profile on the hyperbolic pentagon group.
pentagon = preset("pentagon")
profile = displacement_profile(build_involution(pentagon), build_ball(pentagon, 7))
print("\npentagon min displacement by sphere:", profile.mins,
      "monotone:", profile.monotone)

# Certificates for every preset.  The square group is finite: its boundary
# is empty, recorded in the note rather than failing the verdict.
print()
for name, radius in (("square", 2), ("dinfty", 6), ("pentagon", 6), ("grid", 6)):
    certificate = certify(preset(name), radius)
    summary = {k: v for k, v in certificate.as_dict().items() if k != "graph"}
    print(f"{name}: {json.dumps(summary)}")
