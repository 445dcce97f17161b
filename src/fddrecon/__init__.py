"""Path-based downlink channel reconstruction for FDD massive MIMO arrays.

The pipeline: sound the uplink, extract each user's propagation paths
(angles, delays, gains), schedule a short burst of downlink training beams,
re-estimate the downlink gains those beams expose, rebuild the downlink
channel from geometry plus gains, and precode on the result.
"""

from . import dltrain, enomp, harness, mueval, recon, sysmodel  # noqa: F401

__version__ = "0.1.0"
