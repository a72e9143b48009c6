"""The benchmark's workloads, by name."""

from perfbench.workloads.converge import Converge
from perfbench.workloads.scale import Scale
from perfbench.workloads.serve import Serve
from perfbench.workloads.verify import Verify

WORKLOADS = {w.name: w for w in (Converge, Scale, Serve, Verify)}
