"""Vdbench-style synthetic workload generation.

The paper synthesises 12 classes of "standard" workload traces with the
Vdbench tool, each matching a typical customer business model (database,
heavy computing, …), and then simulates scarce "real" customer traces by
sampling snippets from the standard workloads (Section 4.1).  This
package reproduces both steps without the external tool: profiles are
parameterised by the same characteristics a Vdbench config would encode
(IO-size mix, read/write ratio, intensity level, periodicity, trend,
burstiness).
"""

from repro.workloads.spec import WorkloadProfile, IntensityModel
from repro.workloads.profiles import STANDARD_PROFILES, get_profile, profile_names
from repro.workloads.generator import StandardWorkloadGenerator, GeneratorConfig
from repro.workloads.sampler import RealTraceSampler, SamplerConfig
from repro.workloads.tenant_mix import ZipfianTenantMix

__all__ = [
    "WorkloadProfile",
    "IntensityModel",
    "STANDARD_PROFILES",
    "get_profile",
    "profile_names",
    "StandardWorkloadGenerator",
    "GeneratorConfig",
    "RealTraceSampler",
    "SamplerConfig",
    "ZipfianTenantMix",
]
